package align

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLCSBasic(t *testing.T) {
	a := strings.Fields("9 St, 02141 Wisconsin")
	b := strings.Fields("9th St, 02141 WI")
	matches := LCS(a, b)
	// The LCS is "St, 02141" (two tokens).
	if len(matches) != 2 {
		t.Fatalf("LCS = %v, want 2 matches", matches)
	}
	if a[matches[0][0]] != "St," || a[matches[1][0]] != "02141" {
		t.Errorf("LCS matched wrong tokens: %v", matches)
	}
}

func TestGapsExampleA1(t *testing.T) {
	// Example A.1: "9 St, 02141 Wisconsin" vs "9th St, 02141 WI"
	// produces the aligned non-identical segments (9 vs 9th) and
	// (Wisconsin vs WI).
	a := strings.Fields("9 St, 02141 Wisconsin")
	b := strings.Fields("9th St, 02141 WI")
	gaps := Gaps(a, b)
	if len(gaps) != 2 {
		t.Fatalf("Gaps = %v, want 2", gaps)
	}
	if g := gaps[0]; !(g.ABeg == 0 && g.AEnd == 1 && g.BBeg == 0 && g.BEnd == 1) {
		t.Errorf("gap 0 = %+v", g)
	}
	if g := gaps[1]; !(g.ABeg == 3 && g.AEnd == 4 && g.BBeg == 3 && g.BEnd == 4) {
		t.Errorf("gap 1 = %+v", g)
	}
}

func TestGapsIdentical(t *testing.T) {
	a := strings.Fields("a b c")
	if gaps := Gaps(a, a); len(gaps) != 0 {
		t.Errorf("identical sequences should produce no gaps, got %v", gaps)
	}
}

func TestGapsInsertionOnly(t *testing.T) {
	a := strings.Fields("a c")
	b := strings.Fields("a b c")
	gaps := Gaps(a, b)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	g := gaps[0]
	if g.ABeg != g.AEnd || g.BEnd-g.BBeg != 1 {
		t.Errorf("want pure insertion, got %+v", g)
	}
}

func TestGapsDisjointFullReplacement(t *testing.T) {
	a := strings.Fields("x y")
	b := strings.Fields("p q r")
	gaps := Gaps(a, b)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if g := gaps[0]; !(g.AEnd == 2 && g.BEnd == 3 && g.ABeg == 0 && g.BBeg == 0) {
		t.Errorf("gap = %+v", g)
	}
}

func TestLCSProperty(t *testing.T) {
	// The match list is strictly increasing in both coordinates and
	// matched tokens are equal.
	tokens := []string{"a", "b", "c", "d"}
	f := func(seed int64, na, nb uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := make([]string, int(na%10))
		b := make([]string, int(nb%10))
		for i := range a {
			a[i] = tokens[r.Intn(len(tokens))]
		}
		for i := range b {
			b[i] = tokens[r.Intn(len(tokens))]
		}
		matches := LCS(a, b)
		pi, pj := -1, -1
		for _, m := range matches {
			if m[0] <= pi || m[1] <= pj {
				return false
			}
			if a[m[0]] != b[m[1]] {
				return false
			}
			pi, pj = m[0], m[1]
		}
		// Symmetry of length.
		rev := LCS(b, a)
		return len(rev) == len(matches)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"ab", "ba", 1}, // transposition
		{"abcd", "acbd", 1},
		{"ca", "abc", 3}, // restricted DL: no edit between transposed parts
	}
	for _, c := range cases {
		got := DamerauLevenshtein([]rune(c.a), []rune(c.b))
		if got != c.want {
			t.Errorf("DL(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshteinProperties(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		r := rand.New(rand.NewSource(seed))
		alphabet := []rune("abc")
		a := make([]rune, int(na%12))
		b := make([]rune, int(nb%12))
		for i := range a {
			a[i] = alphabet[r.Intn(len(alphabet))]
		}
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		d := DamerauLevenshtein(a, b)
		// Symmetry, identity, and bounded by max length.
		if d != DamerauLevenshtein(b, a) {
			return false
		}
		if string(a) == string(b) && d != 0 {
			return false
		}
		if string(a) != string(b) && d == 0 {
			return false
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
