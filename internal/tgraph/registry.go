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

// labelKind is the function class of a labelKey.
type labelKind uint8

const (
	kindSubStr labelKind = iota
	kindPrefix
	kindSuffix
	// kindConst is a constant numbered by the registry's Constants
	// table; kindConstStr one numbered by its own string table.
	kindConst
	kindConstStr
)

// labelKey is the value identity of a string function: SubStr(l, r);
// Prefix/Suffix(l.term, l.k); or the constant numbered l.k. Two labels
// of one registry have equal keys iff their functions have equal dsl
// keys.
type labelKey struct {
	l, r posFn
	kind labelKind
}

// Registry interns string functions by value so that equal functions in
// different graphs map to the same LabelID. byKey maps a labelKey to its
// id and keys lists them in id order; a dsl.Func is built only when Func
// or Program asks for one. Seal drops byKey once interning is done.
// Constants are numbered by the Constants table of the Options the
// registry's graphs are built with, or, without one, by the registry's
// own string table.
//
// It is not safe for concurrent use: builds running in parallel each
// take a registry of their own, and Rebase merges their graphs into one.
type Registry struct {
	byKey  map[labelKey]LabelID
	keys   []labelKey
	consts Constants // names kindConst labels; nil until bound
	// byStr numbers the kindConstStr constants; strs[n] is constant n.
	byStr map[string]int32
	strs  []string
	// moved[id] is id's counterpart in the registry Rebase moved this
	// registry's graphs onto.
	moved []LabelID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[labelKey]LabelID)}
}

func (r *Registry) intern(k labelKey) LabelID {
	if id, ok := r.byKey[k]; ok {
		return id
	}
	if r.byKey == nil {
		panic("tgraph: intern into a sealed registry")
	}
	id := LabelID(len(r.keys))
	r.byKey[k] = id
	r.keys = append(r.keys, k)
	return id
}

// constStr returns the kindConstStr key of constant c, numbering c on
// first use.
func (r *Registry) constStr(c string) labelKey {
	n, ok := r.byStr[c]
	if !ok {
		if r.byStr == nil {
			r.byStr = make(map[string]int32)
		}
		n = int32(len(r.strs))
		r.byStr[c] = n
		r.strs = append(r.strs, c)
	}
	return labelKey{kind: kindConstStr, l: posFn{k: n}}
}

// bind ties r to the constant table its graphs are built with. Keys of
// constants are numbers of that table, so one registry takes one table.
func (r *Registry) bind(c Constants) {
	if len(r.keys) == 0 && r.consts == nil {
		r.consts = c
	} else if r.consts != c {
		panic("tgraph: registry used with two constant tables")
	}
}

// Rebase moves g from r, the registry it was built on, onto dst: the
// labels r interned first for g — ids first and up, where first was
// r.Len() when g's build began — are interned into dst in id order, and
// g's edges are relabelled with dst's ids and re-sorted. A label moves
// by value key; only a constant of r's own string table is looked up
// by its string.
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
	dst.bind(r.consts)
	end := first
	for _, id := range g.labels {
		end = max(end, id+1)
	}
	for id := first; id < end; id++ {
		k := r.keys[id]
		if k.kind == kindConstStr {
			k = dst.constStr(r.strs[k.l.k])
		}
		r.moved = append(r.moved, dst.intern(k))
	}
	for k := range g.edges {
		labels := g.edgeLabels(k)
		for x, id := range labels {
			labels[x] = r.moved[id]
		}
		slices.Sort(labels)
	}
}

// Seal ends r's interning once its last graph is built or rebased: it
// drops the lookup tables and trims keys, keeping what Func, Program
// and Len read. Building or rebasing onto a sealed registry panics.
func (r *Registry) Seal() {
	r.byKey, r.byStr, r.moved = nil, nil, nil
	r.keys = slices.Clip(append([]labelKey(nil), r.keys...))
}

// Func returns the string function behind an id.
func (r *Registry) Func(id LabelID) dsl.Func {
	k := r.keys[id]
	switch k.kind {
	case kindSubStr:
		return dsl.SubStr{L: k.l.boxed(), R: k.r.boxed()}
	case kindPrefix:
		return dsl.Prefix{Term: k.l.term, K: int(k.l.k)}
	case kindSuffix:
		return dsl.Suffix{Term: k.l.term, K: int(k.l.k)}
	case kindConst:
		return dsl.ConstantStr{S: r.consts.Name(k.l.k)}
	}
	return dsl.ConstantStr{S: r.strs[k.l.k]}
}

// Len returns the number of interned functions.
func (r *Registry) Len() int { return len(r.keys) }

// Program materializes a label sequence as a dsl.Program.
func (r *Registry) Program(path []LabelID) dsl.Program {
	p := make(dsl.Program, len(path))
	for i, id := range path {
		p[i] = r.Func(id)
	}
	return p
}
