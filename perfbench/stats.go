package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings. Percentiles use the nearest-rank rule on a
// sorted copy, so every reported value is one that was measured.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// at returns the p-th percentile (0 < p <= 100) of an already sorted set.
func (s samples) at(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailLevels are the percentiles a tail metric may fall back to, highest
// first: a tail is reported at the highest level that leaves at least ten
// samples beyond it, so it never rests on a handful of outliers.
var tailLevels = []float64{99, 98, 95, 90, 75, 50}

// tailLevel returns the highest percentile of tailLevels with at least ten
// of n samples beyond it (50 when even the median has fewer).
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// summary is one timing set reduced to what the benchmark reports: the
// median, the tail at the level tailLevel allows and the sample count.
type summary struct {
	N         int
	P50, Tail time.Duration
	TailLevel float64
}

func summarize(s samples) summary {
	c := s.sorted()
	lvl := tailLevel(len(c))
	return summary{N: len(c), P50: c.at(50), Tail: c.at(lvl), TailLevel: lvl}
}

func (m summary) String() string {
	return fmt.Sprintf("p50=%s p%g=%s n=%d", m.P50, m.TailLevel, m.Tail, m.N)
}

// median of plain numbers (used for repeated set-up and round times).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
