package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. It does not modify xs and
// returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates tailPct picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct returns the highest percentile in tailPercentiles that leaves
// at least ten of n samples beyond it, or 0 when n is too small for
// even the median to qualify. A tail percentile with fewer samples
// beyond it is one unlucky sample, not a measurement.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// summary describes one latency sample for the human-readable report.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when N is too small for any tail
	Tail    float64
	Max     float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = median(xs)
	s.Max = quantile(xs, 1)
	if p := tailPct(len(xs)); p > 0 {
		s.TailPct = p
		s.Tail = quantile(xs, p/100)
	}
	return s
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("n=%d p50=%.3f", s.N, s.P50)
	if s.TailPct > 50 {
		out += fmt.Sprintf(" p%g=%.3f", s.TailPct, s.Tail)
	}
	return out + fmt.Sprintf(" max=%.3f", s.Max)
}
