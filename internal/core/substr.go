package core

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"unicode/utf8"
)

// substrIndex is the constant table of the Appendix E constant order
// (tgraph.Constants). It numbers every substring the scorer reads —
// rune-aligned, at most maxLen bytes — and every whole target, and
// keeps, per id, its count over the whole column (global) and over the
// structure group being prepared (structural). Targets are added one
// occurrence at a time, each distinct target hashed once, and seal
// numbers them all at once on GOMAXPROCS workers; a build then reads
// its constants' ids and scores from the target's id list.
type substrIndex struct {
	maxLen int
	// targets maps a target to its number k. Until seal, keys[k] is
	// target k as valid UTF-8 and mult[k] counts its occurrences.
	targets map[string]int32
	keys    []string
	mult    []int32
	// Target k's ids, one per occurrence of a substring, are
	// lists[off[k]:off[k+1]], and wholes[k] is the id of all of it (a
	// whole target over maxLen bytes counts nowhere).
	lists  []int32
	off    []int32
	wholes []int32
	names  []string // id → substring
	global []int32
	sealed bool
	// structural counts the alive targets of one context; touched holds
	// the ids it counted, which the next context clears first.
	structural []int32
	touched    []int32
}

func newSubstrIndex(maxLen int) *substrIndex {
	return &substrIndex{
		maxLen:  maxLen,
		targets: make(map[string]int32),
		off:     []int32{0},
	}
}

// add counts one occurrence of target t. A new target is re-encoded
// once when it is invalid UTF-8, as tgraph re-encodes its runes, so the
// substrings seal numbers match the builder's reads, and its slots in
// lists are laid out.
func (x *substrIndex) add(t string) {
	if x.sealed {
		panic("core: add " + strconv.Quote(t) + " to a sealed constant table")
	}
	k, ok := x.targets[t]
	if !ok {
		k = int32(len(x.keys))
		x.targets[t] = k
		s := t
		if !utf8.ValidString(s) {
			s = string([]rune(s))
		}
		x.keys = append(x.keys, s)
		x.mult = append(x.mult, 0)
		x.off = append(x.off, x.off[k]+int32(x.slots(s)))
	}
	x.mult[k]++
}

// slots returns the number of rune-aligned substrings of s of at most
// maxLen bytes: the length of its id list.
func (x *substrIndex) slots(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if !utf8.RuneStart(s[i]) {
			continue
		}
		for j := i + 1; j <= len(s) && j-i <= x.maxLen; j++ {
			if j == len(s) || utf8.RuneStart(s[j]) {
				n++
			}
		}
	}
	return n
}

// seal numbers every added target on GOMAXPROCS workers. Afterwards
// countContext and Target only look targets up, and add panics.
func (x *substrIndex) seal() { x.number(runtime.GOMAXPROCS(0)) }

// number fills every target's id list and the global counts on the
// given number of workers. Worker w owns the substrings whose first
// byte is w modulo workers, so the workers' key sets are disjoint and
// need no lock: each numbers its own substrings, counts them and writes
// their ids, encoded as local*workers + w, into their precomputed
// slots. A serial pass then concatenates the workers' names and counts
// and rebases every id. Ids are injective but depend on the worker
// count; the builder interns constants in layout order, so LabelIDs do
// not.
func (x *substrIndex) number(workers int) {
	n := len(x.keys)
	x.lists = make([]int32, x.off[n])
	x.wholes = make([]int32, n)
	// An encoded id is below (slots + wholes) * workers.
	if int64(len(x.lists)+n)*int64(workers) > math.MaxInt32 {
		workers = 1
	}
	shards := make([]tableShard, workers)
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[w].ids = make(map[string]int32)
			for k := range x.keys {
				shards[w].fill(x, k, w, workers)
			}
		}()
	}
	wg.Wait()
	base := make([]int32, workers)
	total := 0
	for w := range shards {
		base[w] = int32(total)
		total += len(shards[w].names)
	}
	x.names = make([]string, 0, total)
	x.global = make([]int32, 0, total)
	for w := range shards {
		x.names = append(x.names, shards[w].names...)
		x.global = append(x.global, shards[w].global...)
	}
	rebase := func(ids []int32) {
		for p, v := range ids {
			ids[p] = base[v%int32(workers)] + v/int32(workers)
		}
	}
	rebase(x.lists)
	rebase(x.wholes)
	x.keys, x.mult, x.sealed = nil, nil, true
}

// tableShard is one worker's part of the constant table: the
// substrings whose first byte it owns, with their global counts.
type tableShard struct {
	ids    map[string]int32
	names  []string
	global []int32
}

// fill numbers target k's substrings that shard w of workers owns —
// those whose first byte is w modulo workers, and the whole target when
// its first byte is — and writes their encoded ids into k's slots,
// which run by start, then by end. It allocates only to number a new
// substring.
func (sh *tableShard) fill(x *substrIndex, k, w, workers int) {
	enc := func(id int32) int32 { return id*int32(workers) + int32(w) }
	s, p, m := x.keys[k], x.off[k], x.mult[k]
	for i := 0; i < len(s); i++ {
		if !utf8.RuneStart(s[i]) {
			continue
		}
		mine := int(s[i])%workers == w
		for j := i + 1; j <= len(s) && j-i <= x.maxLen; j++ {
			if j < len(s) && !utf8.RuneStart(s[j]) {
				continue
			}
			if mine {
				id := sh.id(s[i:j])
				sh.global[id] += m
				x.lists[p] = enc(id)
			}
			p++
		}
	}
	first := 0
	if s != "" {
		first = int(s[0])
	}
	if first%workers == w {
		x.wholes[k] = enc(sh.id(s))
	}
}

// id returns sub's shard-local id, numbering it first when it is new.
func (sh *tableShard) id(sub string) int32 {
	id, ok := sh.ids[sub]
	if !ok {
		id = int32(len(sh.names))
		sh.ids[sub] = id
		sh.names = append(sh.names, sub)
		sh.global = append(sh.global, 0)
	}
	return id
}

// countContext makes structural the counts of c's alive targets,
// clearing the previous context's. Every alive target was added at
// construction, before the index was sealed.
func (x *substrIndex) countContext(c *Context) {
	for _, id := range x.touched {
		x.structural[id] = 0
	}
	x.touched = x.touched[:0]
	if len(x.structural) < len(x.global) {
		x.structural = make([]int32, len(x.global))
	}
	for i, r := range c.Reps {
		if c.preDead[i] {
			continue
		}
		ids, _ := x.Target(r.T)
		for _, id := range ids {
			if x.structural[id] == 0 {
				x.touched = append(x.touched, id)
			}
			x.structural[id]++
		}
	}
}

// MaxLen implements tgraph.Constants.
func (x *substrIndex) MaxLen() int { return x.maxLen }

// Target implements tgraph.Constants. It only reads the sealed index,
// so the context's parallel builds share it; t must have been added.
func (x *substrIndex) Target(t string) (ids []int32, whole int32) {
	k, ok := x.targets[t]
	if !ok || !x.sealed {
		panic("core: constant table has no target " + strconv.Quote(t))
	}
	return x.lists[x.off[k]:x.off[k+1]], x.wholes[k]
}

// Score implements tgraph.Constants: the Appendix E constant score of
// substring id in the counted context, freqStruc/sqrt(freqGlobal).
func (x *substrIndex) Score(id int32) float64 {
	return float64(x.structural[id]) / math.Sqrt(float64(max(x.global[id], 1)))
}

// Name implements tgraph.Constants.
func (x *substrIndex) Name(id int32) string { return x.names[id] }
