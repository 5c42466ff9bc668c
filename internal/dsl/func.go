package dsl

import "strconv"

// Func is a string function: the building block of transformation
// programs. ConstantStr and SubStr return at most one output for a given
// input (Appendix B); the affix functions Prefix and Suffix of Appendix D
// may return several (every proper prefix/suffix of a match), so the
// interface exposes a Produces predicate rather than a single Eval.
type Func interface {
	// Produces reports whether the function can output t when applied
	// to input s.
	Produces(s, t []rune) bool
	// AppendKey appends a canonical encoding; equal keys mean equal
	// functions across graphs.
	AppendKey(b []byte) []byte
	String() string
}

// Deterministic is implemented by functions with exactly one output per
// input (ConstantStr, SubStr); Eval returns it.
type Deterministic interface {
	Func
	Eval(s []rune) (string, bool)
}

// ConstantStr always outputs the fixed string S (Appendix B).
type ConstantStr struct {
	S string
}

// Eval implements Deterministic.
func (f ConstantStr) Eval(s []rune) (string, bool) { return f.S, true }

// Produces implements Func.
func (f ConstantStr) Produces(s, t []rune) bool { return string(t) == f.S }

// AppendKey implements Func.
func (f ConstantStr) AppendKey(b []byte) []byte {
	b = append(b, 'C')
	return strconv.AppendQuote(b, f.S)
}

func (f ConstantStr) String() string {
	return "ConstantStr(" + strconv.Quote(f.S) + ")"
}

// SubStr outputs s[l,r) where l and r come from the two position
// functions (Appendix B's SubStr(l, r), l < r required).
type SubStr struct {
	L, R Pos
}

// Eval implements Deterministic.
func (f SubStr) Eval(s []rune) (string, bool) {
	l, ok := f.L.Eval(s)
	if !ok {
		return "", false
	}
	r, ok := f.R.Eval(s)
	if !ok || l >= r || r > len(s)+1 {
		return "", false
	}
	return string(s[l-1 : r-1]), true
}

// Produces implements Func.
func (f SubStr) Produces(s, t []rune) bool {
	out, ok := f.Eval(s)
	return ok && out == string(t)
}

// AppendKey implements Func.
func (f SubStr) AppendKey(b []byte) []byte {
	b = append(b, 'S', '(')
	b = f.L.AppendKey(b)
	b = append(b, ',')
	b = f.R.AppendKey(b)
	return append(b, ')')
}

func (f SubStr) String() string {
	return "SubStr(" + f.L.String() + "," + f.R.String() + ")"
}

// Prefix outputs any proper, non-empty prefix of the Kth match of Term in
// s (Appendix D; negative K counts matches from the back). The full match
// itself is excluded — it is already expressible with SubStr.
type Prefix struct {
	Term Term
	K    int
}

// Produces implements Func.
func (f Prefix) Produces(s, t []rune) bool {
	sp, ok := kthMatch(s, f.Term, f.K)
	if !ok {
		return false
	}
	n := len(t)
	if n < 1 || n >= sp.Len() {
		return false
	}
	return runesEqual(s[sp.Beg-1:sp.Beg-1+n], t)
}

// MaxLen returns the length of the longest output Prefix can produce on
// s (match length - 1), or 0 when the match does not exist.
func (f Prefix) MaxLen(s []rune) int {
	sp, ok := kthMatch(s, f.Term, f.K)
	if !ok {
		return 0
	}
	return sp.Len() - 1
}

// AppendKey implements Func.
func (f Prefix) AppendKey(b []byte) []byte {
	b = append(b, 'P', f.Term.Sig())
	return strconv.AppendInt(b, int64(f.K), 10)
}

func (f Prefix) String() string {
	return "Prefix(" + f.Term.String() + "," + strconv.Itoa(f.K) + ")"
}

// Suffix outputs any proper, non-empty suffix of the Kth match of Term in
// s (Appendix D).
type Suffix struct {
	Term Term
	K    int
}

// Produces implements Func.
func (f Suffix) Produces(s, t []rune) bool {
	sp, ok := kthMatch(s, f.Term, f.K)
	if !ok {
		return false
	}
	n := len(t)
	if n < 1 || n >= sp.Len() {
		return false
	}
	return runesEqual(s[sp.End-1-n:sp.End-1], t)
}

// MaxLen returns the length of the longest output Suffix can produce.
func (f Suffix) MaxLen(s []rune) int {
	sp, ok := kthMatch(s, f.Term, f.K)
	if !ok {
		return 0
	}
	return sp.Len() - 1
}

// AppendKey implements Func.
func (f Suffix) AppendKey(b []byte) []byte {
	b = append(b, 'F', f.Term.Sig())
	return strconv.AppendInt(b, int64(f.K), 10)
}

func (f Suffix) String() string {
	return "Suffix(" + f.Term.String() + "," + strconv.Itoa(f.K) + ")"
}

func kthMatch(s []rune, t Term, k int) (Span, bool) {
	matches := Matches(s, t)
	m := len(matches)
	switch {
	case k > 0 && k <= m:
		return matches[k-1], true
	case k < 0 && -k <= m:
		return matches[m+k], true
	}
	return Span{}, false
}
