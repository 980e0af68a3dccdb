package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Dist is an exact distribution over raw samples: every quantile is an
// order statistic of the sorted samples, never a histogram bucket edge.
type Dist struct {
	sorted []float64
}

// NewDist copies and sorts the samples.
func NewDist(samples []float64) Dist {
	s := slices.Clone(samples)
	slices.Sort(s)
	return Dist{sorted: s}
}

// DurDist builds a distribution of durations in the given unit.
func DurDist(ds []time.Duration, unit time.Duration) Dist {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / float64(unit)
	}
	return NewDist(s)
}

// N is the sample count.
func (d Dist) N() int { return len(d.sorted) }

// rank is the nearest-rank index of quantile q: the smallest sample
// with at least a q share of the samples at or below it.
func (d Dist) rank(q float64) int {
	r := int(math.Ceil(q*float64(len(d.sorted)))) - 1
	return min(max(r, 0), len(d.sorted)-1)
}

// Quantile returns the nearest-rank q-quantile, or NaN when empty.
func (d Dist) Quantile(q float64) float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[d.rank(q)]
}

// Beyond is the number of samples strictly after the q-quantile's rank:
// how many observations the quantile's tail rests on.
func (d Dist) Beyond(q float64) int {
	if len(d.sorted) == 0 {
		return 0
	}
	return len(d.sorted) - 1 - d.rank(q)
}

// Supported reports whether at least ten samples lie beyond the
// q-quantile, the rule for reporting a tail percentile at all.
func (d Dist) Supported(q float64) bool { return d.Beyond(q) >= 10 }

// Max is the largest sample, or NaN when empty.
func (d Dist) Max() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[len(d.sorted)-1]
}

// Describe renders "p50=… p99=… (n=…, k beyond p99)", omitting p99 when
// fewer than ten samples lie beyond it.
func (d Dist) Describe(unit string) string {
	if d.N() == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50=%.4g%s", d.Quantile(0.5), unit)
	if d.Supported(0.99) {
		s += fmt.Sprintf(" p99=%.4g%s", d.Quantile(0.99), unit)
	} else {
		s += " p99=unsupported"
	}
	return s + fmt.Sprintf(" max=%.4g%s (n=%d, %d beyond p99)", d.Max(), unit, d.N(), d.Beyond(0.99))
}

// median of a small set of repeated measurements.
func median(v []float64) float64 { return NewDist(v).Quantile(0.5) }
