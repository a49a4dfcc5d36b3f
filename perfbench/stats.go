package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// Summary holds exact order statistics of one latency series.
type Summary struct {
	N   int
	P50 float64
	// Tail is the value at the highest nearest-rank percentile that still has
	// tailBeyond samples above it; TailPct names that percentile. With
	// tailBeyond or fewer samples no such percentile exists, so Tail is the
	// maximum and TailPct is 100.
	Tail    float64
	TailPct float64
	Max     float64
}

// summarize computes exact statistics over xs without modifying it.
func summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: n, P50: nearestRank(s, 0.5), Max: s[n-1]}
	if n > tailBeyond {
		out.Tail = s[n-tailBeyond-1]
		out.TailPct = 100 * float64(n-tailBeyond) / float64(n)
	} else {
		out.Tail = out.Max
		out.TailPct = 100
	}
	return out
}

// nearestRank returns the q-quantile of sorted s by the nearest-rank
// definition: the smallest sample with at least q·n samples at or below it.
func nearestRank(s []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(s))))
	r = max(1, min(r, len(s)))
	return s[r-1]
}
