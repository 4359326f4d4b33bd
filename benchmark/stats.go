package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads printed here match the ones a reader recomputes from the raw
// values.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	switch len(s) {
	case 0:
		return out
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	out.Median = percentile(s, 50)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile interpolates linearly between closest ranks of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// ratio is num/den, 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
