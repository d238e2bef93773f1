package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.StdDev() != 2 {
		t.Fatalf("stddev = %f", s.StdDev())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %f/%f", s.Min, s.Max)
	}
}

func TestSeriesPercentiles(t *testing.T) {
	s := NewSeries(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if m := s.Median(); math.Abs(m-50.5) > 0.01 {
		t.Fatalf("median = %f", m)
	}
	if p := s.Percentile(99); p < 99 || p > 100 {
		t.Fatalf("p99 = %f", p)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
}

func TestOutlierContribution(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 99; i++ {
		s.Add(1)
	}
	s.Add(901) // 901 / 1000 of the total
	if got := s.OutlierContribution(10); math.Abs(got-0.901) > 1e-9 {
		t.Fatalf("outlier contribution = %f", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-similarity = %f", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal = %f", got)
	}
	if got := CosineSimilarity(nil, a); got != 0 {
		t.Fatalf("empty = %f", got)
	}
}

func TestAccuracy(t *testing.T) {
	cases := []struct{ est, ref, want float64 }{
		{1, 1, 1},
		{0.8, 1, 0.8},
		{1.2, 1, 0.8},
		{3, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	}
	for _, c := range cases {
		if got := Accuracy(c.est, c.ref); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Accuracy(%f,%f) = %f, want %f", c.est, c.ref, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %f", got)
	}
	if got := GeoMean([]float64{0, -1}); got != 0 {
		t.Fatalf("geomean of non-positives = %f", got)
	}
}

func TestQuickCosineBounds(t *testing.T) {
	f := func(a, b []float64) bool {
		c := CosineSimilarity(a, b)
		return c >= -1.0000001 && c <= 1.0000001 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		s := NewSeries(len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if s.Len() > 0 && v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistogram(t *testing.T) {
	var h LogHistogram
	h.Add(0.5)
	h.Add(3)
	h.Add(1000)
	if h.N != 3 || h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(9) != 1 {
		t.Fatalf("histogram: %+v", h.Counts[:12])
	}
}

// TestSeriesGrowthMatchesAppend checks that a Series grown by Add's
// doubling reads back exactly like one whose values were appended to a
// plain slice, on both sides of the first growth step.
func TestSeriesGrowthMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, minSeriesCap - 1, minSeriesCap, minSeriesCap + 1, 5000} {
		s := NewSeries(0)
		var ref []float64
		for i := 0; i < n; i++ {
			v := float64((i*7919)%1009) + 0.25
			s.Add(v)
			ref = append(ref, v)
		}
		want := &Series{vals: ref}
		if !slices.Equal(s.Values(), ref) {
			t.Fatalf("n=%d: Values differ from the appended reference", n)
		}
		if s.Len() != n || s.Sum() != want.Sum() {
			t.Fatalf("n=%d: len %d sum %v, want %d %v", n, s.Len(), s.Sum(), n, want.Sum())
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			wantJSON = []byte("[]")
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("n=%d: MarshalJSON = %.40s, want %.40s", n, got, wantJSON)
		}
		for _, p := range []float64{0, 25, 50, 99, 100} {
			if g, w := s.Percentile(p), want.Percentile(p); g != w {
				t.Fatalf("n=%d: p%v = %v, want %v", n, p, g, w)
			}
		}
	}
	if got, _ := (&Series{}).MarshalJSON(); string(got) != "[]" {
		t.Fatalf("zero Series marshals as %s, want []", got)
	}
}
