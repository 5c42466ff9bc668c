// Package tgraph builds transformation graphs: for a replacement s→t,
// the DAG whose nodes are the |t|+1 positions of t and whose edge e(i,j)
// carries every string function that outputs t[i,j) when applied to s
// (Definition 2, Appendix C). By Theorem 4.2 the graph encodes exactly
// the programs consistent with the replacement, so two replacements share
// a transformation iff their graphs share a spanning path with equal edge
// labels — which is what the label registry makes comparable across
// graphs.
package tgraph

import (
	"slices"

	"github.com/goldrec/goldrec/internal/dsl"
)

// LabelID identifies an interned string function within one Registry.
// Graphs grouped together must share a registry (the engine uses one
// registry per structure group).
type LabelID int32

// Registry interns string functions by their canonical key so that equal
// functions in different graphs map to the same LabelID. It is not safe
// for concurrent use: builds running in parallel each take a registry of
// their own, and Rebase merges their graphs into one.
type Registry struct {
	byKey map[string]LabelID
	keys  []string
	funcs []dsl.Func
	// moved[id] is id's counterpart in the registry Rebase moved this
	// registry's graphs onto.
	moved []LabelID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]LabelID)}
}

// Intern returns the LabelID for f, creating it on first use.
func (r *Registry) Intern(f dsl.Func) LabelID {
	return r.intern(string(f.AppendKey(nil)), f)
}

func (r *Registry) intern(key string, f dsl.Func) LabelID {
	if id, ok := r.byKey[key]; ok {
		return id
	}
	id := LabelID(len(r.funcs))
	r.byKey[key] = id
	r.keys = append(r.keys, key)
	r.funcs = append(r.funcs, f)
	return id
}

// internKey is Intern with a precomputed key, avoiding double encoding in
// the hot path of graph construction.
func (r *Registry) internKey(key []byte, mk func() dsl.Func) LabelID {
	if id, ok := r.byKey[string(key)]; ok {
		return id
	}
	return r.intern(string(key), mk())
}

// Rebase moves g from r, the registry it was built on, onto dst: the
// labels r interned first for g — ids first and up, where first was
// r.Len() when g's build began — are interned into dst in id order, and
// g's edges are relabelled with dst's ids and re-sorted.
//
// Graphs built on several registries, each registry's graphs in one
// global order, and rebased onto dst in that global order get exactly
// the ids that building them in that order on dst itself would assign:
// a label r interned before g belongs to an earlier graph, so dst
// already holds it; the labels new to r are rebased in g's own
// first-use order, and any new to dst are interned in that order. It
// panics when r's graphs are rebased out of their build order.
func (r *Registry) Rebase(g *Graph, first LabelID, dst *Registry) {
	if LabelID(len(r.moved)) != first {
		panic("tgraph: Rebase out of build order")
	}
	end := first
	for i := 1; i < len(g.Adj); i++ {
		for _, e := range g.Adj[i] {
			for _, id := range e.Labels {
				end = max(end, id+1)
			}
		}
	}
	for id := first; id < end; id++ {
		r.moved = append(r.moved, dst.intern(r.keys[id], r.funcs[id]))
	}
	for i := 1; i < len(g.Adj); i++ {
		for _, e := range g.Adj[i] {
			for k, id := range e.Labels {
				e.Labels[k] = r.moved[id]
			}
			slices.Sort(e.Labels)
		}
	}
}

// Func returns the string function behind an id.
func (r *Registry) Func(id LabelID) dsl.Func { return r.funcs[id] }

// Len returns the number of interned functions.
func (r *Registry) Len() int { return len(r.funcs) }

// Program materializes a label sequence as a dsl.Program.
func (r *Registry) Program(path []LabelID) dsl.Program {
	p := make(dsl.Program, len(path))
	for i, id := range path {
		p[i] = r.funcs[id]
	}
	return p
}
