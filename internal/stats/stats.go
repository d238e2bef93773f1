// Package stats provides the measurement toolkit used across the
// simulator: streaming summaries, latency histograms with percentile
// queries, the cosine-similarity metric the paper uses to validate page
// fault latency series (§7.2), and accuracy metrics for the validation
// experiments.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and reports simple
// moments without retaining the samples.
type Summary struct {
	N    uint64
	Sum  float64
	Sum2 float64
	Min  float64
	Max  float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.N++
	s.Sum += v
	s.Sum2 += v * v
}

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Variance returns the population variance, or 0 if empty.
func (s *Summary) Variance() float64 {
	if s.N == 0 {
		return 0
	}
	m := s.Mean()
	v := s.Sum2/float64(s.N) - m*m
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Series retains every observation, supporting exact percentile queries,
// distribution summaries, and similarity metrics. Use for bounded sample
// counts (e.g., per-fault latencies).
type Series struct {
	vals   []float64
	sorted bool
}

// NewSeries returns a Series with capacity hint n.
func NewSeries(n int) *Series { return &Series{vals: make([]float64, 0, n)} }

// minSeriesCap is the capacity of a Series' first growth.
const minSeriesCap = 256

// Add appends one observation. A full series doubles its capacity
// (append grows large slices by only ~1.25×, re-copying a long series
// many times over).
func (s *Series) Add(v float64) {
	if len(s.vals) == cap(s.vals) {
		grown := make([]float64, len(s.vals), max(minSeriesCap, 2*cap(s.vals)))
		copy(grown, s.vals)
		s.vals = grown
	}
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.vals) }

// Values returns the raw observations in insertion order.
// The returned slice must not be modified.
func (s *Series) Values() []float64 { return s.vals }

// Sum returns the total of all observations.
func (s *Series) Sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.vals))
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s.vals)))
}

// MarshalJSON encodes the series as a plain JSON array of observations.
// Beware that percentile queries sort the values in place, so the
// encoded order is insertion order only before the first such query.
func (s *Series) MarshalJSON() ([]byte, error) {
	if s.vals == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.vals)
}

// UnmarshalJSON decodes a JSON array of observations.
func (s *Series) UnmarshalJSON(b []byte) error {
	s.sorted = false
	s.vals = s.vals[:0]
	return json.Unmarshal(b, &s.vals)
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 for an empty series.
//
// Note: sorting reorders the underlying values; call Values before the
// first Percentile call if insertion order matters.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if n == 1 {
		return s.vals[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Max returns the largest observation, or 0 if empty.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Min returns the smallest observation, or 0 if empty.
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// OutlierContribution returns the fraction of the series total contributed
// by observations strictly greater than threshold — the metric Fig. 2 uses
// to quantify minor-page-fault tail latency ("contribution of outliers").
func (s *Series) OutlierContribution(threshold float64) float64 {
	total := 0.0
	outlier := 0.0
	for _, v := range s.vals {
		total += v
		if v > threshold {
			outlier += v
		}
	}
	if total == 0 {
		return 0
	}
	return outlier / total
}

// CosineSimilarity returns the cosine of the angle between vectors a and b,
// truncated to the shorter length; this is the validation metric of §7.2
// ("we use the cosine similarity instead of the mean absolute error to
// account for the variance and the fluctuations in the PF latency").
// Returns 0 if either (truncated) vector is all-zero or empty.
func CosineSimilarity(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	// Scale by the largest magnitude to avoid overflow on extreme inputs.
	var scale float64
	for i := 0; i < n; i++ {
		if v := math.Abs(a[i]); v > scale {
			scale = v
		}
		if v := math.Abs(b[i]); v > scale {
			scale = v
		}
	}
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return 0
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		x, y := a[i]/scale, b[i]/scale
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Accuracy returns the estimation accuracy of estimate against reference:
// 1 - |estimate-reference|/reference, clamped to [0,1]. This is the IPC /
// MPKI / PTW-latency accuracy metric of §7.2. Returns 0 when reference
// is 0 and the estimate is not, and 1 when both are 0.
func Accuracy(estimate, reference float64) float64 {
	if reference == 0 {
		if estimate == 0 {
			return 1
		}
		return 0
	}
	acc := 1 - math.Abs(estimate-reference)/math.Abs(reference)
	if acc < 0 {
		return 0
	}
	return acc
}

// GeoMean returns the geometric mean of vs, ignoring non-positive entries.
// Returns 0 if no positive entries exist.
func GeoMean(vs []float64) float64 {
	var acc float64
	var n int
	for _, v := range vs {
		if v > 0 {
			acc += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(acc / float64(n))
}

// Mean returns the arithmetic mean of vs, or 0 if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

// LogHistogram buckets positive observations into powers-of-two bins,
// suitable for heavy-tailed latency distributions (Figs. 2, 16).
type LogHistogram struct {
	Counts [64]uint64
	N      uint64
}

// Add records v (values < 1 land in bucket 0).
func (h *LogHistogram) Add(v float64) {
	b := 0
	if v >= 1 {
		b = int(math.Log2(v))
		if b > 63 {
			b = 63
		}
	}
	h.Counts[b]++
	h.N++
}

// Bucket returns the count of bucket i (values in [2^i, 2^(i+1))).
func (h *LogHistogram) Bucket(i int) uint64 { return h.Counts[i] }

// String renders the non-empty buckets.
func (h *LogHistogram) String() string {
	out := ""
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		out += fmt.Sprintf("[2^%d,2^%d): %d\n", i, i+1, c)
	}
	return out
}
