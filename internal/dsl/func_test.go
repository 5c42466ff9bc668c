package dsl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantStr(t *testing.T) {
	// Example B.2: ConstantStr(MIT) = MIT.
	f := ConstantStr{"MIT"}
	out, ok := f.Eval([]rune("anything"))
	if !ok || out != "MIT" {
		t.Errorf("ConstantStr eval = %q,%v", out, ok)
	}
	if !f.Produces([]rune("x"), []rune("MIT")) {
		t.Error("Produces(MIT) = false")
	}
	if f.Produces([]rune("x"), []rune("MI")) {
		t.Error("Produces(MI) = true")
	}
}

func TestSubStrExampleB2(t *testing.T) {
	// SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E)) = "Lee" on "Lee, Mary".
	f := SubStr{
		L: MatchPos{TermCapital, 1, DirBegin},
		R: MatchPos{TermLower, 1, DirEnd},
	}
	out, ok := f.Eval([]rune("Lee, Mary"))
	if !ok || out != "Lee" {
		t.Errorf("SubStr = %q,%v want \"Lee\",true", out, ok)
	}
}

func TestSubStrUndefinedCases(t *testing.T) {
	s := []rune("abc")
	// l >= r is invalid.
	f := SubStr{L: ConstPos{3}, R: ConstPos{2}}
	if _, ok := f.Eval(s); ok {
		t.Error("SubStr with l>r should be undefined")
	}
	f = SubStr{L: ConstPos{2}, R: ConstPos{2}}
	if _, ok := f.Eval(s); ok {
		t.Error("SubStr with l==r should be undefined")
	}
	// Position function undefined.
	f = SubStr{L: MatchPos{TermDigit, 1, DirBegin}, R: ConstPos{2}}
	if _, ok := f.Eval(s); ok {
		t.Error("SubStr with undefined position should be undefined")
	}
}

func TestProgramExampleB3(t *testing.T) {
	// Example B.3 / Figures 3-4: the program f2 ⊕ f3 ⊕ f1 maps
	// "Lee, Mary" to "M. Lee".
	f1 := SubStr{MatchPos{TermCapital, 1, DirBegin}, MatchPos{TermLower, 1, DirEnd}}
	f2 := SubStr{MatchPos{TermSpace, 1, DirEnd}, MatchPos{TermCapital, -1, DirEnd}}
	f3 := ConstantStr{". "}
	p := Program{f2, f3, f1}
	out, ok := p.Run("Lee, Mary")
	if !ok || out != "M. Lee" {
		t.Fatalf("program = %q,%v want \"M. Lee\",true", out, ok)
	}
	if !p.Consistent("Lee, Mary", "M. Lee") {
		t.Error("Consistent should agree with Run")
	}
	// The same program also works for "Smith, James" → "J. Smith"
	// (Group 2 of Figure 2).
	out, ok = p.Run("Smith, James")
	if !ok || out != "J. Smith" {
		t.Fatalf("program on Smith = %q,%v want \"J. Smith\",true", out, ok)
	}
}

func TestProgramTranspose(t *testing.T) {
	// Group 1 of Figure 2: "Lee, Mary" → "Mary Lee" by transposing
	// first and last name: SubStr(last-cap..end) ⊕ " " ⊕ SubStr(first
	// word).
	first := SubStr{MatchPos{TermCapital, -1, DirBegin}, ConstPos{-1}}
	sep := ConstantStr{" "}
	last := SubStr{ConstPos{1}, MatchPos{TermLower, 1, DirEnd}}
	p := Program{first, sep, last}
	for _, c := range [][2]string{
		{"Lee, Mary", "Mary Lee"},
		{"Smith, James", "James Smith"},
	} {
		out, ok := p.Run(c[0])
		if !ok || out != c[1] {
			t.Errorf("transpose(%q) = %q,%v want %q", c[0], out, ok, c[1])
		}
	}
}

func TestPrefixSuffixExampleD1(t *testing.T) {
	// Example D.1: for Street→St the output "t" at edge e2,3 is a
	// prefix of the 1st lowercase match "treet"; for Avenue→Ave, "ve"
	// is a prefix of "venue". The shared consistent program is
	// SubStr(TC 1st beg, TC 1st end) ⊕ Prefix(Tl, 1).
	p := Program{
		SubStr{MatchPos{TermCapital, 1, DirBegin}, MatchPos{TermCapital, 1, DirEnd}},
		Prefix{TermLower, 1},
	}
	if !p.Consistent("Street", "St") {
		t.Error("program should be consistent with Street→St")
	}
	if !p.Consistent("Avenue", "Ave") {
		t.Error("program should be consistent with Avenue→Ave")
	}
	if p.Consistent("Street", "Sx") {
		t.Error("program should not be consistent with Street→Sx")
	}
	if p.Deterministic() {
		t.Error("program with Prefix should not be deterministic")
	}
	if _, ok := p.Run("Street"); ok {
		t.Error("Run should fail on nondeterministic program")
	}
}

func TestPrefixProduces(t *testing.T) {
	s := []rune("Street")
	pre := Prefix{TermLower, 1}
	// 1st lowercase match is "treet" (length 5); proper prefixes are
	// t, tr, tre, tree (lengths 1..4).
	for _, want := range []string{"t", "tr", "tre", "tree"} {
		if !pre.Produces(s, []rune(want)) {
			t.Errorf("Prefix should produce %q", want)
		}
	}
	if pre.Produces(s, []rune("treet")) {
		t.Error("Prefix must exclude the full match")
	}
	if pre.Produces(s, []rune("")) {
		t.Error("Prefix must exclude the empty prefix")
	}
	if pre.Produces(s, []rune("x")) {
		t.Error("Prefix should not produce a non-prefix")
	}
	if got := pre.MaxLen(s); got != 4 {
		t.Errorf("MaxLen = %d, want 4", got)
	}
}

func TestSuffixProduces(t *testing.T) {
	s := []rune("Street")
	suf := Suffix{TermLower, 1}
	for _, want := range []string{"t", "et", "eet", "reet"} {
		if !suf.Produces(s, []rune(want)) {
			t.Errorf("Suffix should produce %q", want)
		}
	}
	if suf.Produces(s, []rune("treet")) {
		t.Error("Suffix must exclude the full match")
	}
	if suf.Produces(s, []rune("tree")) {
		t.Error("Suffix should not produce a non-suffix")
	}
	// Backward k.
	suf = Suffix{TermLower, -1}
	if !suf.Produces(s, []rune("et")) {
		t.Error("Suffix with k=-1 should work")
	}
}

func TestFuncKeysUnique(t *testing.T) {
	fs := []Func{
		ConstantStr{"a"}, ConstantStr{"b"}, ConstantStr{""},
		SubStr{ConstPos{1}, ConstPos{2}},
		SubStr{ConstPos{1}, ConstPos{3}},
		SubStr{MatchPos{TermCapital, 1, DirBegin}, ConstPos{2}},
		Prefix{TermLower, 1}, Prefix{TermLower, 2}, Prefix{TermCapital, 1},
		Suffix{TermLower, 1},
	}
	seen := make(map[string]Func)
	for _, f := range fs {
		k := string(f.AppendKey(nil))
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision %q between %v and %v", k, prev, f)
		}
		seen[k] = f
	}
}

func TestKeyDisambiguatesConstantQuoting(t *testing.T) {
	// ConstantStr("a|b") vs two adjacent functions must not collide in
	// program keys thanks to quoting.
	p1 := Program{ConstantStr{`a"|"b`}}
	p2 := Program{ConstantStr{"a"}, ConstantStr{"b"}}
	if p1.Key() == p2.Key() {
		t.Error("program keys collide")
	}
}

func TestSubStrOutputIsSubstringProperty(t *testing.T) {
	f := func(seed int64, n uint8, l, r int8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomASCII(rng, int(n%30))
		fn := SubStr{ConstPos{int(l)}, ConstPos{int(r)}}
		out, ok := fn.Eval(s)
		if !ok {
			return true
		}
		return strings.Contains(string(s), out) && out != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsistentMatchesRunOnDeterministicPrograms(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := string(randomASCII(rng, int(n%20)+2))
		p := Program{
			SubStr{ConstPos{1}, ConstPos{2}},
			ConstantStr{"-"},
			SubStr{ConstPos{-2}, ConstPos{-1}},
		}
		out, ok := p.Run(s)
		if !ok {
			return true
		}
		return p.Consistent(s, out) && !p.Consistent(s, out+"x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramString(t *testing.T) {
	p := Program{ConstantStr{"x"}}
	if got := p.String(); got != `ConstantStr("x")` {
		t.Errorf("String = %q", got)
	}
	if got := (Program{}).String(); got != "ε" {
		t.Errorf("empty program String = %q", got)
	}
}
