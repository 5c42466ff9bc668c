package dsl

import (
	"strings"
	"testing"
)

// samplePrograms covers every function and position constructor,
// nesting, negative ks, both directions, and strings that collide with
// the grammar's own metacharacters.
func samplePrograms() []Program {
	return []Program{
		{},
		{ConstantStr{S: ""}},
		{ConstantStr{S: `a|b"c\d,e)`}},
		{ConstantStr{S: "π ⊕ 日本"}},
		{SubStr{L: ConstPos{K: 1}, R: ConstPos{K: -1}}},
		{SubStr{
			L: MatchPos{Term: TermCapital, K: 2, Dir: DirBegin},
			R: MatchPos{Term: TermDigit, K: -3, Dir: DirEnd},
		}},
		{SubStr{
			L: MatchPos{Term: TermPunct, K: -1, Dir: DirEnd},
			R: ConstPos{K: 5},
		}},
		{Prefix{Term: TermLower, K: 1}},
		{Suffix{Term: TermPunct, K: -2}},
		{
			ConstantStr{S: "Dr. "},
			SubStr{L: MatchPos{Term: TermCapital, K: 1, Dir: DirBegin}, R: ConstPos{K: -1}},
			Suffix{Term: TermSpace, K: 1},
			Prefix{Term: TermDigit, K: -1},
		},
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	for _, p := range samplePrograms() {
		enc := EncodeProgram(p)
		if !strings.HasPrefix(enc, EncodingVersion+":") {
			t.Fatalf("EncodeProgram(%v) = %q: missing version prefix", p, enc)
		}
		got, err := ParseProgram(enc)
		if err != nil {
			t.Fatalf("ParseProgram(%q): %v", enc, err)
		}
		if re := EncodeProgram(got); re != enc {
			t.Errorf("round trip changed encoding: %q -> %q", enc, re)
		}
		if got.Key() != p.Key() {
			t.Errorf("round trip changed key: %q -> %q", p.Key(), got.Key())
		}
		if got.String() != p.String() {
			t.Errorf("round trip changed rendering: %q -> %q", p.String(), got.String())
		}
	}
}

// TestParseCanonicalizes feeds grammatical-but-noncanonical spellings
// and checks the parse result re-encodes canonically.
func TestParseCanonicalizes(t *testing.T) {
	cases := map[string]string{
		`g1:S(K01,K-02)`:         `g1:S(K1,K-2)`,
		`g1:C"\x41"`:             `g1:C"A"`,
		`g1:PC-0`:                `g1:PC0`,
		`g1:Fb2|C"x"|S(K1,MC1E)`: `g1:Fb2|C"x"|S(K1,MC1E)`,
	}
	for in, want := range cases {
		p, err := ParseProgram(in)
		if err != nil {
			t.Fatalf("ParseProgram(%q): %v", in, err)
		}
		if got := EncodeProgram(p); got != want {
			t.Errorf("ParseProgram(%q) re-encoded to %q, want %q", in, got, want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",                          // no version prefix
		"g1",                        // prefix without colon
		"g2:C\"x\"",                 // unknown version
		`g1:C`,                      // missing quoted string
		`g1:C"unterminated`,         // bad literal
		`g1:Q"x"`,                   // unknown function code
		`g1:S(K1K2)`,                // missing comma
		`g1:S(K1,K2`,                // missing close paren
		`g1:S(K1,X2)`,               // unknown position code
		`g1:S(L"a"1B,K-1)`,          // literal-string position: not a g1 form
		`g1:Pz1`,                    // unknown term signature
		`g1:MC1B`,                   // position where a function is expected
		`g1:PC`,                     // missing integer
		`g1:PC-`,                    // sign without digits
		`g1:PC99999999999999999999`, // integer overflow
		`g1:S(MC1X,K1)`,             // bad direction
		`g1:C"x"|`,                  // trailing separator
		`g1:C"x"C"y"`,               // missing separator
		`g1:C"x" `,                  // trailing garbage
	}
	for _, in := range bad {
		if p, err := ParseProgram(in); err == nil {
			t.Errorf("ParseProgram(%q) = %v, want error", in, p)
		}
	}
}

// FuzzProgramRoundTrip checks two properties on arbitrary input: parse
// never panics, and when parse succeeds, encode∘parse is idempotent —
// the re-encoding parses back to a program with the identical
// encoding (the canonical fixed point).
func FuzzProgramRoundTrip(f *testing.F) {
	for _, p := range samplePrograms() {
		f.Add(EncodeProgram(p))
	}
	f.Add(`g1:S(K01,K-02)`)
	f.Add(`g1:C"\x41"|Pd-1`)
	f.Add("g1:")
	f.Add("g2:whatever")
	f.Add(`g1:C"` + "\xff\xfe" + `"`)
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParseProgram(in) // must not panic
		if err != nil {
			return
		}
		enc := EncodeProgram(p)
		p2, err := ParseProgram(enc)
		if err != nil {
			t.Fatalf("re-parse of encoder output %q failed: %v", enc, err)
		}
		if enc2 := EncodeProgram(p2); enc2 != enc {
			t.Fatalf("encoding not a fixed point: %q -> %q (input %q)", enc, enc2, in)
		}
	})
}
