package dsl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstPosExampleB1(t *testing.T) {
	// Example B.1: s = "Lee, Mary", |s| = 9.
	// ConstPos(2) = 2 and ConstPos(-5) = 9+2-5 = 6.
	s := []rune("Lee, Mary")
	if got, ok := (ConstPos{2}).Eval(s); !ok || got != 2 {
		t.Errorf("ConstPos(2) = %d,%v want 2,true", got, ok)
	}
	if got, ok := (ConstPos{-5}).Eval(s); !ok || got != 6 {
		t.Errorf("ConstPos(-5) = %d,%v want 6,true", got, ok)
	}
}

func TestConstPosBounds(t *testing.T) {
	s := []rune("ab")
	cases := []struct {
		k    int
		want int
		ok   bool
	}{
		{1, 1, true}, {2, 2, true}, {3, 3, true}, {4, 0, false},
		{-1, 3, true}, {-2, 2, true}, {-3, 1, true}, {-4, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := (ConstPos{c.k}).Eval(s)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ConstPos(%d) = %d,%v want %d,%v", c.k, got, ok, c.want, c.ok)
		}
	}
}

func TestMatchPosExampleB1(t *testing.T) {
	// MatchPos(TC, 2, B) = 6 and MatchPos(TC, 2, E) = 7 on "Lee, Mary".
	s := []rune("Lee, Mary")
	if got, ok := (MatchPos{TermCapital, 2, DirBegin}).Eval(s); !ok || got != 6 {
		t.Errorf("MatchPos(TC,2,B) = %d,%v want 6,true", got, ok)
	}
	if got, ok := (MatchPos{TermCapital, 2, DirEnd}).Eval(s); !ok || got != 7 {
		t.Errorf("MatchPos(TC,2,E) = %d,%v want 7,true", got, ok)
	}
}

func TestMatchPosFigure3(t *testing.T) {
	// Figure 4: on "Lee, Mary", PA = 1 (beg of 1st TC match), PB = 4
	// (end of 1st Tl match), PC = 6 (end of 1st Tb match), PD = 7 (end
	// of last TC match).
	s := []rune("Lee, Mary")
	cases := []struct {
		name string
		p    MatchPos
		want int
	}{
		{"PA", MatchPos{TermCapital, 1, DirBegin}, 1},
		{"PB", MatchPos{TermLower, 1, DirEnd}, 4},
		{"PC", MatchPos{TermSpace, 1, DirEnd}, 6},
		{"PD", MatchPos{TermCapital, -1, DirEnd}, 7},
		// Example 4.1: PE is the beginning of the 1st punctuation match.
		{"PE", MatchPos{TermPunct, 1, DirBegin}, 4},
	}
	for _, c := range cases {
		got, ok := c.p.Eval(s)
		if !ok || got != c.want {
			t.Errorf("%s: %v = %d,%v want %d,true", c.name, c.p, got, ok, c.want)
		}
	}
}

func TestMatchPosNoMatch(t *testing.T) {
	s := []rune("abc")
	if _, ok := (MatchPos{TermDigit, 1, DirBegin}).Eval(s); ok {
		t.Error("MatchPos(Td,1,B) on \"abc\" should not match")
	}
	if _, ok := (MatchPos{TermLower, 2, DirBegin}).Eval(s); ok {
		t.Error("MatchPos(Tl,2,B) on \"abc\" should not match (only one run)")
	}
	if _, ok := (MatchPos{TermLower, 0, DirBegin}).Eval(s); ok {
		t.Error("MatchPos with k=0 should not match")
	}
}

func TestMatchPosForwardBackwardEquivalence(t *testing.T) {
	// Appendix B: the kth match equals the (k-m-1)th backward match.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomASCII(r, int(n%30)+1)
		for term := Term(0); term < numTerms; term++ {
			m := len(Matches(s, term))
			for k := 1; k <= m; k++ {
				for _, dir := range []Dir{DirBegin, DirEnd} {
					fw, ok1 := (MatchPos{term, k, dir}).Eval(s)
					bw, ok2 := (MatchPos{term, k - m - 1, dir}).Eval(s)
					if !ok1 || !ok2 || fw != bw {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPosKeysUnique(t *testing.T) {
	ps := []Pos{
		ConstPos{1}, ConstPos{-1}, ConstPos{2},
		MatchPos{TermCapital, 1, DirBegin},
		MatchPos{TermCapital, 1, DirEnd},
		MatchPos{TermCapital, -1, DirBegin},
		MatchPos{TermLower, 1, DirBegin},
	}
	seen := make(map[string]Pos)
	for _, p := range ps {
		k := string(p.AppendKey(nil))
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision %q between %v and %v", k, prev, p)
		}
		seen[k] = p
	}
}

func TestPosEvalInRangeProperty(t *testing.T) {
	// Any successful Eval returns a position in [1, |s|+1].
	f := func(seed int64, n uint8, k int8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomASCII(r, int(n%30))
		kk := int(k)
		ps := []Pos{ConstPos{kk}}
		for term := Term(0); term < numTerms; term++ {
			ps = append(ps,
				MatchPos{term, kk, DirBegin},
				MatchPos{term, kk, DirEnd})
		}
		for _, p := range ps {
			if pos, ok := p.Eval(s); ok && (pos < 1 || pos > len(s)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
