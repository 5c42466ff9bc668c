package core

import (
	"fmt"
	"testing"
	"unicode/utf8"
)

func naiveCountSubstrings(m map[string]int, s string, maxLen int) {
	r := []rune(s)
	for i := 0; i < len(r); i++ {
		for j := i + 1; j <= len(r) && j-i <= maxLen; j++ {
			m[string(r[i:j])]++
		}
	}
}

func TestCountSubstringsMatchesNaive(t *testing.T) {
	inputs := []string{
		"", "a", "Mary Lee", "Smith, James", "née Müller", "日本語テスト",
		"mixed ascii and ünïcode tails", "aaaaaaaaaaaaaaaaaaaaaaaa",
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
// string into a pre-warmed map must not allocate at all — the string
// slices share the input's bytes and the pooled scratch never engages.
func TestCountSubstringsASCIIAllocs(t *testing.T) {
	const s = "Smith, James A. 42nd"
	m := map[string]int{}
	countSubstrings(m, s, maxConstLen) // size the map
	allocs := testing.AllocsPerRun(100, func() {
		countSubstrings(m, s, maxConstLen)
	})
	if allocs != 0 {
		t.Errorf("ASCII countSubstrings allocated %.1f per run, want 0", allocs)
	}
}

// TestCountSubstringsUnicodeScratchPooled gates the non-ASCII path's
// decode buffer: with a pre-warmed map and pool, the only remaining
// allocations are the map-key strings themselves, bounded by the
// substring count — the per-call []rune(s) conversion must be gone.
func TestCountSubstringsUnicodeScratchPooled(t *testing.T) {
	const s = "Müller, Ænna 42nd"
	m := map[string]int{}
	countSubstrings(m, s, maxConstLen)
	// One key-string allocation per counted substring (duplicates
	// included) is inherent to map[string]int with rune-sliced keys;
	// the gate is that nothing else — in particular the per-call
	// []rune(s) decode — allocates on top.
	n := utf8.RuneCountInString(s)
	counted := 0
	for i := 0; i < n; i++ {
		c := n - i
		if c > maxConstLen {
			c = maxConstLen
		}
		counted += c
	}
	allocs := testing.AllocsPerRun(100, func() {
		countSubstrings(m, s, maxConstLen)
	})
	if int(allocs) > counted {
		t.Errorf("unicode countSubstrings allocated %.1f per run, want <= %d (key strings only)", allocs, counted)
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
