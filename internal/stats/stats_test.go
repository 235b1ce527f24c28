package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandSplitIndependence(t *testing.T) {
	a := NewRand(7)
	c1 := a.Split()
	c2 := a.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestPerm(t *testing.T) {
	r := NewRand(3)
	p := r.PermInto(nil, 10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(4)
	const mean = 3.5
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestGenParetoShapeZeroIsExponential(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.GenPareto(0, 2, 0)
	}
	got := sum / n
	if math.Abs(got-2) > 0.05 {
		t.Errorf("GPD(0,2,0) mean = %v, want ~2 (exponential)", got)
	}
}

func TestGenParetoPositiveSupport(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 10000; i++ {
		if v := r.GenPareto(10, 5, 0.2); v < 10 {
			t.Fatalf("GPD sample %v below location 10", v)
		}
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {99, 99}, {100, 100},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
	if s.CDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
	if s.FractionAbove(1) != 0 {
		t.Error("empty FractionAbove should be 0")
	}
}

func TestFractionAbove(t *testing.T) {
	s := NewSample(0)
	s.AddAll([]float64{1, 2, 3, 4, 5})
	if got := s.FractionAbove(3); got != 0.4 {
		t.Errorf("FractionAbove(3) = %v, want 0.4", got)
	}
	if got := s.FractionAbove(0); got != 1 {
		t.Errorf("FractionAbove(0) = %v, want 1", got)
	}
	if got := s.FractionAbove(5); got != 0 {
		t.Errorf("FractionAbove(5) = %v, want 0", got)
	}
}

func TestCDFShape(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	if cdf[0].Value != 0 || cdf[len(cdf)-1].Value != 999 {
		t.Errorf("CDF endpoints: %v .. %v", cdf[0], cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Fraction < cdf[i-1].Fraction || cdf[i].Value < cdf[i-1].Value {
			t.Errorf("CDF not monotone at %d", i)
		}
	}
	if one := s.CDF(1); len(one) != 1 || one[0].Fraction != 1 {
		t.Errorf("CDF(1) = %v", one)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, pa, pb uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := NewSample(0)
		s.AddAll(vals)
		lo := float64(pa%101) / 1.0
		hi := float64(pb%101) / 1.0
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := s.Percentile(lo), s.Percentile(hi)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample(0)
	s.AddAll([]float64{1, 2, 3})
	if out := s.Summary("ms"); out == "" {
		t.Error("empty Summary")
	}
}

func TestWriteCSV(t *testing.T) {
	got := writeCSVFile(t, "", []string{"x", "y"}, [][]float64{{1, 2}, {3.5, 4}})
	if want := "x,y\n1,2\n3.5,4\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestWriteCSVFile(t *testing.T) {
	got := writeCSVFile(t, "", []string{"v"}, [][]float64{{7}})
	if got != "v\n7\n" {
		t.Errorf("file = %q", got)
	}
}

func TestCDFRows(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	rows := s.CDFRows(5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != 1 || rows[4][0] != 100 {
		t.Errorf("endpoints: %v .. %v", rows[0], rows[4])
	}
	for _, r := range rows {
		if len(r) != 2 || r[1] <= 0 || r[1] > 1 {
			t.Errorf("bad row %v", r)
		}
	}
}
