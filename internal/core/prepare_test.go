package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/internal/tgraph"
)

// datagenReps returns the token-level candidate replacements goldrec
// extracts from one generated dataset's standardization column, as the
// engine receives them.
func datagenReps(family string, seed int64, scale float64) []Rep {
	return storeReps(datagenStore(family, seed, scale))
}

// datagenStore is the candidate store of one generated dataset's
// standardization column.
func datagenStore(family string, seed int64, scale float64) *replace.Store {
	cfg := datagen.Config{Seed: seed, Scale: scale}
	var g *datagen.Generated
	switch family {
	case "address":
		g = datagen.Address(cfg)
	case "author":
		g = datagen.AuthorList(cfg)
	case "journal":
		g = datagen.JournalTitle(cfg)
	default:
		panic("unknown dataset family " + family)
	}
	return replace.NewStore(g.Data, g.Col, replace.Options{TokenLevel: true})
}

// storeReps returns a store's candidate replacements as the engine
// receives them.
func storeReps(st *replace.Store) []Rep {
	cands := st.Candidates()
	reps := make([]Rep, 0, len(cands))
	for _, c := range cands {
		reps = append(reps, Rep{S: c.LHS, T: c.RHS, Ext: c.ID})
	}
	return reps
}

// serialPrepare is the reference for Context.Prepare: every graph built
// in replacement order on one shared registry, then indexed the same way.
func serialPrepare(c *Context, opt tgraph.Options) *Context {
	ref := newContext(c.Sig, c.Reps)
	ref.preDead = c.preDead
	ref.Reg = tgraph.NewRegistry()
	ref.Graphs = make([]*tgraph.Graph, len(c.Reps))
	for i, r := range c.Reps {
		if !c.preDead[i] {
			ref.Graphs[i] = tgraph.Build(r.S, r.T, ref.Reg, opt)
		}
	}
	ref.index()
	return ref
}

// regKeys lists a registry's functions by canonical key, in id order.
func regKeys(reg *tgraph.Registry) []string {
	keys := make([]string, reg.Len())
	for id := range keys {
		keys[id] = string(reg.Func(tgraph.LabelID(id)).AppendKey(nil))
	}
	return keys
}

// groupDigest hashes the program keys and members of an engine's first
// n groups.
func groupDigest(e *Engine, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		g := e.NextGroup()
		if g == nil {
			break
		}
		b := append([]byte(g.Program.Key()), '|')
		for _, m := range g.Members {
			b = strconv.AppendInt(b, int64(m.Ext), 10)
			b = append(b, ',')
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// graphDigest hashes the label space an engine's contexts build under
// its options: every context's registry keys in id order and every
// graph's adjacency. It prepares each context that is not prepared yet.
func graphDigest(e *Engine) string {
	h := sha256.New()
	var b []byte
	for _, c := range e.ctxs {
		c.Prepare(e.graphOptions(c))
		b = append(b[:0], c.Sig...)
		b = append(b, '\n')
		for _, k := range regKeys(c.Reg) {
			b = append(append(b, k...), '\n')
		}
		for gi, g := range c.Graphs {
			if g == nil {
				continue
			}
			b = strconv.AppendInt(append(b, 'g'), int64(gi), 10)
			b = append(appendAdjacency(b, g), '\n')
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// appendAdjacency appends every edge of g as " i-j,id,id…", nodes and
// edges in order.
func appendAdjacency(b []byte, g *tgraph.Graph) []byte {
	for i := 1; i < g.N; i++ {
		lo, hi := g.Edges(i)
		for k := lo; k < hi; k++ {
			to, labels := g.Edge(k)
			b = strconv.AppendInt(append(b, ' '), int64(i), 10)
			b = strconv.AppendInt(append(b, '-'), int64(to), 10)
			for _, id := range labels {
				b = strconv.AppendInt(append(b, ','), int64(id), 10)
			}
		}
	}
	return b
}

// diffPrepared reports the first difference between a prepared context
// and its serial reference: registry, graphs, index and upper bounds.
func diffPrepared(got, want *Context) error {
	if gk, wk := regKeys(got.Reg), regKeys(want.Reg); !slices.Equal(gk, wk) {
		return fmt.Errorf("registry keys differ: %d vs %d ids", len(gk), len(wk))
	}
	for i, g := range got.Graphs {
		w := want.Graphs[i]
		if (g == nil) != (w == nil) {
			return fmt.Errorf("graph %d: built %v, reference built %v", i, g != nil, w != nil)
		}
		if g == nil {
			continue
		}
		if g.N != w.N || !bytes.Equal(appendAdjacency(nil, g), appendAdjacency(nil, w)) {
			return fmt.Errorf("graph %d (%q→%q): adjacency differs", i, g.S, g.T)
		}
	}
	for id := 0; id < want.Reg.Len(); id++ {
		f := tgraph.LabelID(id)
		if !slices.Equal(got.Index.List(f), want.Index.List(f)) || got.Index.GraphCount(f) != want.Index.GraphCount(f) {
			return fmt.Errorf("label %d: inverted list differs", id)
		}
	}
	if !slices.Equal(got.up, want.up) {
		return fmt.Errorf("upper bounds %v, reference %v", got.up, want.up)
	}
	return nil
}

// TestPrepareMatchesSerialBuild is the differential for the parallel
// graph build: at GOMAXPROCS 1 and 2, every structure group that
// Context.Prepare builds must equal the serial reference — registry
// order, every graph's adjacency, inverted lists, graph counts and
// upper bounds — and the first 40 groups must match the digests the
// serial build produced before the build went parallel. The label
// space is pinned too: graphs is the graphDigest under the shipped
// options, full the one under the unpruned tgraph.Options{} (the
// ablation path, every SubStr label kept), both as the build produced
// them before position lists went flat and the constant scorer moved
// onto a substring index.
func TestPrepareMatchesSerialBuild(t *testing.T) {
	cases := []struct {
		family       string
		seed         int64
		scale        float64
		digest       string
		graphs, full string
	}{
		{"address", 1000, 0.1, "b84e62c18cd72959", "624f7ad8f423631e", "f911e3abeaec7df4"},
		{"address", 1001, 0.1, "5dc25fbb2908ae01", "787d73569cbed41d", "24b88fb251bba843"},
		{"author", 1, 0.4, "893c8bd0c02ab2e2", "b2f51217681b9af4", "cca9943c01bab763"},
		{"author", 2, 0.4, "3e602d83e979ca8f", "5403830f8bbe5695", "f54f87984e242606"},
		{"journal", 1, 0.25, "a81b4ab84c102ada", "f384068e20fe32bd", "0c25cb02473ef1fa"},
		{"journal", 2, 0.25, "797e895da8e03cb1", "73a50bb67b7549e9", "9e1f9de6639ab584"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			reps := datagenReps(tc.family, tc.seed, tc.scale)
			if d := groupDigest(NewEngine(reps, sessionOptions()), 40); d != tc.digest {
				t.Errorf("GOMAXPROCS=%d %s/%d: first 40 groups digest %s, want %s", procs, tc.family, tc.seed, d, tc.digest)
			}
			e := NewEngine(reps, sessionOptions())
			for _, c := range e.ctxs {
				want := serialPrepare(c, e.graphOptions(c))
				c.Prepare(e.graphOptions(c))
				if err := diffPrepared(c, want); err != nil {
					t.Fatalf("GOMAXPROCS=%d %s/%d structure %q: %v", procs, tc.family, tc.seed, c.Sig, err)
				}
			}
			if d := graphDigest(e); d != tc.graphs {
				t.Errorf("GOMAXPROCS=%d %s/%d: graph digest %s, want %s", procs, tc.family, tc.seed, d, tc.graphs)
			}
			full := sessionOptions()
			full.Graph = tgraph.Options{}
			if d := graphDigest(NewEngine(reps, full)); d != tc.full {
				t.Errorf("GOMAXPROCS=%d %s/%d: unpruned graph digest %s, want %s", procs, tc.family, tc.seed, d, tc.full)
			}
		}
	}
}

// TestPrepareRegistryDeterministic: preparing one structure group twice
// interns the same labels in the same order. The canonical pivot
// tie-break of AllGroups hashes LabelIDs, so its groups depend on it.
func TestPrepareRegistryDeterministic(t *testing.T) {
	reps := benchPool(64)
	var first []string
	for run := 0; run < 5; run++ {
		e := NewEngine(reps, benchOptions())
		c := e.ctxs[0]
		c.Prepare(e.graphOptions(c))
		keys := regKeys(c.Reg)
		if run == 0 {
			first = keys
			continue
		}
		if !slices.Equal(keys, first) {
			t.Fatalf("run %d: registry order differs from run 0", run)
		}
	}
}

// TestRegistryKeysInjective: value keys must not split a function in
// two. In every prepared registry, no two LabelIDs render the same dsl
// key, and every rendered key parses back (the g1: codec) to itself —
// over the three generated families under both option legs, and over a
// pool whose é and invalid-UTF-8 targets share constants across graphs.
func TestRegistryKeysInjective(t *testing.T) {
	pools := map[string][]Rep{
		"address": datagenReps("address", 1000, 0.1),
		"author":  datagenReps("author", 1, 0.2),
		"journal": datagenReps("journal", 1, 0.1),
		"utf8": {
			{S: "née Müller", T: "Müller", Ext: 0},
			{S: "Müller Straße", T: "Müller", Ext: 1},
			{S: "ab\xffcd", T: "ab\xffcd é", Ext: 2},
			{S: "ab\xfecd", T: "ab\xfecd é", Ext: 3},
			{S: "x", T: "ab�cd é", Ext: 4},
			{S: "y", T: "ééééééééé\xff", Ext: 5},
			{S: "z", T: "ééééééééé\xfe", Ext: 6},
			{S: "w", T: "é", Ext: 7},
		},
	}
	for name, reps := range pools {
		for _, leg := range optionLegs() {
			e := NewEngine(reps, leg.opts)
			for _, c := range e.ctxs {
				c.Prepare(e.graphOptions(c))
				seen := make(map[string]tgraph.LabelID, c.Reg.Len())
				for id, key := range regKeys(c.Reg) {
					if other, ok := seen[key]; ok {
						t.Fatalf("%s/%s structure %q: labels %d and %d both render %s", name, leg.name, c.Sig, other, id, key)
					}
					seen[key] = tgraph.LabelID(id)
					p, err := dsl.ParseProgram(dsl.EncodingVersion + ":" + key)
					if err != nil || len(p) != 1 || p.Key() != key {
						t.Fatalf("%s/%s structure %q: label %d key %s does not parse back (%v)", name, leg.name, c.Sig, id, key, err)
					}
				}
			}
		}
	}
}
