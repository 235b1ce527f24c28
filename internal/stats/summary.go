package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers percentile/CDF queries
// exactly (it keeps all values; experiment populations here are at most
// a few million points, which is fine in memory and avoids sketch
// error in tail percentiles — the paper's headline numbers are p99 and
// p99.9).
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{vals: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// AddAll records every observation in vs.
func (s *Sample) AddAll(vs []float64) {
	s.vals = append(s.vals, vs...)
	s.sorted = false
	for _, v := range vs {
		s.sum += v
	}
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.vals) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// FractionAbove reports the fraction of observations strictly greater
// than threshold.
func (s *Sample) FractionAbove(threshold float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	// First index with value > threshold.
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > threshold })
	return float64(len(s.vals)-i) / float64(len(s.vals))
}

// CDFPoint is one (value, cumulative fraction) pair of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF downsampled to at most points entries
// (evenly spaced in rank), always including the minimum and maximum.
func (s *Sample) CDF(points int) []CDFPoint {
	n := len(s.vals)
	if n == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		rank := n - 1
		if points > 1 {
			rank = i * (n - 1) / (points - 1)
		}
		out = append(out, CDFPoint{
			Value:    s.vals[rank],
			Fraction: float64(rank+1) / float64(n),
		})
	}
	return out
}

// Values returns a copy of the raw observations (sorted).
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Summary renders a one-line human-readable digest.
func (s *Sample) Summary(unit string) string {
	return fmt.Sprintf("n=%d min=%.3g p50=%.3g p95=%.3g p99=%.3g p99.9=%.3g max=%.3g %s",
		s.Len(), s.Min(), s.Percentile(50), s.Percentile(95),
		s.Percentile(99), s.Percentile(99.9), s.Max(), unit)
}
