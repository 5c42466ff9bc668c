package core

import (
	"fmt"
	"testing"
)

// naiveCountSubstrings is the reference: decode s to runes (invalid
// bytes become U+FFFD, as in tgraph) and count every rune-aligned
// substring whose encoding spans at most maxLen bytes.
func naiveCountSubstrings(m map[string]int, s string, maxLen int) {
	r := []rune(s)
	for i := 0; i < len(r); i++ {
		for j := i + 1; j <= len(r); j++ {
			if k := string(r[i:j]); len(k) <= maxLen {
				m[k]++
			}
		}
	}
}

func TestCountSubstringsMatchesNaive(t *testing.T) {
	inputs := []string{
		"", "a", "Mary Lee", "Smith, James", "née Müller", "日本語テスト",
		"mixed ascii and ünïcode tails", "aaaaaaaaaaaaaaaaaaaaaaaa",
		"éééééééééééé", "ab\xffcd\xc3(é\xe2\x82",
	}
	for _, s := range inputs {
		for _, maxLen := range []int{1, 3, 16} {
			want := map[string]int{}
			naiveCountSubstrings(want, s, maxLen)
			got := map[string]int{}
			countSubstrings(got, s, maxLen)
			if len(got) != len(want) {
				t.Fatalf("countSubstrings(%q, %d): %d keys, want %d", s, maxLen, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("countSubstrings(%q, %d)[%q] = %d, want %d", s, maxLen, k, got[k], n)
				}
			}
		}
	}
}

// TestCountSubstringsASCIIAllocs gates the hot path: counting an ASCII
// string into a pre-warmed map must not allocate at all — every key
// slices the input in place.
func TestCountSubstringsASCIIAllocs(t *testing.T) {
	assertCountSubstringsNoAllocs(t, "Smith, James A. 42nd")
}

// TestCountSubstringsUnicodeScratchPooled gates the non-ASCII path: it
// needs no decode scratch, pooled or per call, and its keys slice the
// input in place too, so a pre-warmed map means zero allocations.
func TestCountSubstringsUnicodeScratchPooled(t *testing.T) {
	assertCountSubstringsNoAllocs(t, "Müller, Ænna 42nd")
}

func assertCountSubstringsNoAllocs(t *testing.T, s string) {
	t.Helper()
	m := map[string]int{}
	countSubstrings(m, s, maxConstLen) // size the map
	allocs := testing.AllocsPerRun(100, func() {
		countSubstrings(m, s, maxConstLen)
	})
	if allocs != 0 {
		t.Errorf("countSubstrings(%q) allocated %.1f per run, want 0", s, allocs)
	}
}

func BenchmarkCountSubstrings(b *testing.B) {
	cases := []struct{ name, s string }{
		{"ascii", "Smith, James A. 42nd Street apt 7"},
		{"unicode", "Müller, Ænna 42nd Straße Bür 7"},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/len=%d", tc.name, len(tc.s)), func(b *testing.B) {
			m := map[string]int{}
			countSubstrings(m, tc.s, maxConstLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				countSubstrings(m, tc.s, maxConstLen)
			}
		})
	}
}
