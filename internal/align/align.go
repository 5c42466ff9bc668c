// Package align provides the sequence-alignment utilities Appendix A of
// the paper uses to generate fine-grained token-level candidate
// replacements: longest-common-subsequence alignment of token sequences
// and the Damerau-Levenshtein alternative it cites [11].
package align

// Gap is a pair of aligned, non-identical segments: A[ABeg:AEnd] on one
// side corresponds to B[BBeg:BEnd] on the other. One side may be empty
// (pure insertion/deletion).
type Gap struct {
	ABeg, AEnd int
	BBeg, BEnd int
}

// LCS returns the index pairs (i, j) of a longest common subsequence of a
// and b, in increasing order of both coordinates.
func LCS(a, b []string) [][2]int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out [][2]int
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case a[i] == b[j]:
			out = append(out, [2]int{i, j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// Gaps aligns a and b by their LCS and returns the maximal non-identical
// aligned segment pairs between consecutive matches (Appendix A: "each
// aligned pair of non-identical subsequences composes a pair of candidate
// replacements").
func Gaps(a, b []string) []Gap {
	matches := LCS(a, b)
	var out []Gap
	pa, pb := 0, 0
	emit := func(ae, be int) {
		if pa < ae || pb < be {
			out = append(out, Gap{ABeg: pa, AEnd: ae, BBeg: pb, BEnd: be})
		}
	}
	for _, m := range matches {
		emit(m[0], m[1])
		pa, pb = m[0]+1, m[1]+1
	}
	emit(len(a), len(b))
	return out
}

// DamerauLevenshtein returns the restricted Damerau-Levenshtein edit
// distance (insertions, deletions, substitutions and adjacent
// transpositions) between two rune sequences.
func DamerauLevenshtein(a, b []rune) int {
	n, m := len(a), len(b)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	prev2 := make([]int, m+1)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < best {
					best = t
				}
			}
			cur[j] = best
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[m]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
