package dsl

import "strconv"

// Dir selects the beginning or ending position of a matched span
// (Appendix B's binary-state variable).
type Dir uint8

const (
	// DirBegin selects beg(s(τ,k)).
	DirBegin Dir = iota
	// DirEnd selects end(s(τ,k)).
	DirEnd
)

func (d Dir) String() string {
	if d == DirBegin {
		return "B"
	}
	return "E"
}

// Pos is a position function: applied to an input string it either
// returns a 1-based position in [1, |s|+1] or reports that it does not
// match (Appendix B).
type Pos interface {
	// Eval returns the position in s, or ok=false when undefined.
	Eval(s []rune) (pos int, ok bool)
	// AppendKey appends a canonical, unambiguous encoding of the
	// function to b. Equal keys mean identical functions; keys are the
	// basis of cross-graph label sharing.
	AppendKey(b []byte) []byte
	String() string
}

// ConstPos is the constant position function ConstPos(k) of Appendix B:
// positive k counts from the front, negative k from the back
// (ConstPos(-1) is position |s|+1).
type ConstPos struct {
	K int
}

// Eval implements Pos.
func (p ConstPos) Eval(s []rune) (int, bool) {
	n := len(s)
	switch {
	case p.K > 0 && p.K <= n+1:
		return p.K, true
	case p.K < 0 && -p.K <= n+1:
		return n + 2 + p.K, true
	}
	return 0, false
}

// AppendKey implements Pos.
func (p ConstPos) AppendKey(b []byte) []byte {
	b = append(b, 'K')
	return strconv.AppendInt(b, int64(p.K), 10)
}

func (p ConstPos) String() string {
	return "ConstPos(" + strconv.Itoa(p.K) + ")"
}

// MatchPos is MatchPos(τ, k, Dir): the beginning or ending position of
// the kth match of term τ in s; negative k counts matches from the back
// (k = -1 is the last match).
type MatchPos struct {
	Term Term
	K    int
	Dir  Dir
}

// Eval implements Pos.
func (p MatchPos) Eval(s []rune) (int, bool) {
	matches := Matches(s, p.Term)
	m := len(matches)
	idx := 0
	switch {
	case p.K > 0 && p.K <= m:
		idx = p.K - 1
	case p.K < 0 && -p.K <= m:
		idx = m + p.K
	default:
		return 0, false
	}
	if p.Dir == DirBegin {
		return matches[idx].Beg, true
	}
	return matches[idx].End, true
}

// AppendKey implements Pos.
func (p MatchPos) AppendKey(b []byte) []byte {
	b = append(b, 'M', p.Term.Sig())
	b = strconv.AppendInt(b, int64(p.K), 10)
	if p.Dir == DirBegin {
		b = append(b, 'B')
	} else {
		b = append(b, 'E')
	}
	return b
}

func (p MatchPos) String() string {
	return "MatchPos(" + p.Term.String() + "," + strconv.Itoa(p.K) + "," + p.Dir.String() + ")"
}

func runesEqual(a, b []rune) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
