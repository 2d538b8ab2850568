package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p % of the
// samples at or below it. It is a sample that was measured, never an
// interpolation, and xs is not modified. An empty xs yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// when len(xs) is even. An empty xs yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundStats are statistics by metric name: one round's, or a run's.
type roundStats map[string]float64

// samples collects values by metric name and reduces each name to its
// median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) medians() roundStats {
	st := roundStats{}
	for name, vs := range s {
		st[name] = median(vs)
	}
	return st
}

// medianOfRounds reduces per-round statistics to the run's value: for
// every metric name, the median over the rounds that reported it. A host
// phase (slow disk, a noisy neighbour) that hits a minority of the rounds
// does not move the result.
func medianOfRounds(rounds []roundStats) roundStats {
	byName := samples{}
	for _, r := range rounds {
		for name, v := range r {
			byName.add(name, v)
		}
	}
	return byName.medians()
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the steadiness figure the benchmark
// contract uses. Quartiles follow Python's statistics.quantiles(xs, n=4)
// (exclusive method), so the numbers compare with the driver's. Fewer
// than two samples yield 0.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points
		j, delta := k*(len(s)+1)/4, k*(len(s)+1)%4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
