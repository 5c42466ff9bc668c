package core

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// substrIndex is the constant table of the Appendix E constant order
// (tgraph.Constants). It numbers every substring the scorer reads —
// rune-aligned, at most maxLen bytes — and every whole target, and
// keeps, per id, its count over the whole column (global) and over the
// structure group being prepared (structural). A target's substrings
// are hashed once: its id list is cached, so a repeated target only
// re-adds ids, and a build reads its constants' ids and scores from
// the list.
type substrIndex struct {
	maxLen int
	ids    map[string]int32 // substring → id; nil once sealed
	names  []string         // id → substring
	// targets maps a target to its number k; target k's ids, one per
	// occurrence, are lists[off[k]:off[k+1]], and wholes[k] is the id
	// of all of it (a whole target over maxLen bytes counts nowhere).
	targets map[string]int32
	lists   []int32
	off     []int32
	wholes  []int32
	global  []int32
	// structural counts the alive targets of one context; touched holds
	// the ids it counted, which the next context clears first.
	structural []int32
	touched    []int32
}

func newSubstrIndex(maxLen int) *substrIndex {
	return &substrIndex{
		maxLen:  maxLen,
		ids:     make(map[string]int32),
		targets: make(map[string]int32),
		off:     []int32{0},
	}
}

// add counts target t into the global counts, numbering its substrings
// the first time t is seen.
func (x *substrIndex) add(t string) {
	for _, id := range x.list(t) {
		x.global[id]++
	}
}

// list returns t's cached ids, numbering them first when t is new.
func (x *substrIndex) list(t string) []int32 {
	k, ok := x.targets[t]
	if !ok {
		if x.ids == nil {
			panic("core: sealed constant table has no target " + strconv.Quote(t))
		}
		k = int32(len(x.off) - 1)
		x.targets[t] = k
		s := t
		if !utf8.ValidString(s) {
			s = string([]rune(s))
		}
		x.lists = x.appendIDs(x.lists, s)
		x.off = append(x.off, int32(len(x.lists)))
		x.wholes = append(x.wholes, x.id(s))
	}
	return x.lists[x.off[k]:x.off[k+1]]
}

// appendIDs appends the id of every rune-aligned substring of s of at
// most maxLen bytes, numbering new ones. Keys slice s in place. s must
// be valid UTF-8: list re-encodes an invalid target once first, as
// tgraph re-encodes its runes, so the keys match the builder's reads.
func (x *substrIndex) appendIDs(dst []int32, s string) []int32 {
	for i := 0; i < len(s); i++ {
		if !utf8.RuneStart(s[i]) {
			continue
		}
		for j := i + 1; j <= len(s) && j-i <= x.maxLen; j++ {
			if j < len(s) && !utf8.RuneStart(s[j]) {
				continue
			}
			dst = append(dst, x.id(s[i:j]))
		}
	}
	return dst
}

// seal drops the substring → id map once every target is numbered:
// countContext and Target only look targets up, and numbering a new
// one afterwards panics.
func (x *substrIndex) seal() { x.ids = nil }

// id returns sub's id, numbering it first when it is new.
func (x *substrIndex) id(sub string) int32 {
	id, ok := x.ids[sub]
	if !ok {
		id = int32(len(x.global))
		x.ids[sub] = id
		x.names = append(x.names, sub)
		x.global = append(x.global, 0)
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
		for _, id := range x.list(r.T) {
			if x.structural[id] == 0 {
				x.touched = append(x.touched, id)
			}
			x.structural[id]++
		}
	}
}

// MaxLen implements tgraph.Constants.
func (x *substrIndex) MaxLen() int { return x.maxLen }

// Target implements tgraph.Constants. It only reads the index, so the
// context's parallel builds share it; t must have been added.
func (x *substrIndex) Target(t string) (ids []int32, whole int32) {
	k, ok := x.targets[t]
	if !ok {
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
