package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing distribution, in the unit it is reported in.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks, or 0 for an empty distribution.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return sortedQuantile(xs, q)
}

func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// summary is how a timing is reported: the median, the 99th percentile,
// and the highest percentile that still has at least ten samples beyond
// it — so a reader can tell whether p99 rests on enough tail samples.
type summary struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	TailLevel float64 `json:"tail_level"` // percentile with ≥10 samples beyond it (0 when n < 11)
	Tail      float64 `json:"tail"`       // the value at TailLevel
	Max       float64 `json:"max"`
}

func (s samples) summarize() summary {
	if len(s) == 0 {
		return summary{}
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	sum := summary{
		N:   len(xs),
		P50: sortedQuantile(xs, 0.5),
		P99: sortedQuantile(xs, 0.99),
		Max: xs[len(xs)-1],
	}
	if n := len(xs); n > 10 {
		level := math.Floor(100*float64(n-10)/float64(n)) / 100
		if level > 0.999 {
			level = 0.999
		}
		sum.TailLevel = level * 100
		sum.Tail = sortedQuantile(xs, level)
	}
	return sum
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
