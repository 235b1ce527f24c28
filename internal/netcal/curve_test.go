package netcal

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d < 1e-6 || d < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestTokenBucketEval(t *testing.T) {
	c := NewTokenBucket(100, 50) // 100 B/s, 50 B burst
	cases := []struct{ t, want float64 }{
		{-1, 0},
		{0, 50},
		{1, 150},
		{2.5, 300},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.t); !almostEq(got, tc.want) {
			t.Errorf("Eval(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := c.LongTermRate(); got != 100 {
		t.Errorf("LongTermRate = %v, want 100", got)
	}
	if got := c.Eval(0); got != 50 {
		t.Errorf("Eval(0) = %v, want 50", got)
	}
}

func TestRateCappedEval(t *testing.T) {
	// rate 100 B/s, burst 1000 B, peak 1000 B/s, seed 100 B.
	// Crossover at t = (1000-100)/(1000-100) = 1 s.
	c := NewRateCapped(100, 1000, 1000, 100)
	cases := []struct{ t, want float64 }{
		{0, 100},
		{0.5, 600},
		{1, 1100},
		{2, 1200},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.t); !almostEq(got, tc.want) {
			t.Errorf("Eval(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// Whichever way the two lines lie — peak below rate, seed above burst,
// ties, or crossing in either order — the curve is their pointwise
// minimum, from both constructors.
func TestRateCappedDegenerate(t *testing.T) {
	var ar Arena
	for _, c := range []struct{ rate, burst, peak, seed float64 }{
		{100, 50, 80, 10},   // peak < rate: the peak line alone
		{100, 50, 100, 10},  // peak == rate: still the peak line
		{100, 50, 1000, 50}, // seed == burst: the bucket line alone
		{100, 50, 1000, 60}, // seed > burst, peak > rate: the bucket line alone
		{100, 50, 80, 60},   // seed > burst, peak < rate: bucket line, then peak line
		{100, 50, 1000, 10}, // the ordinary two pieces
		{100, 0, 1000, 0},
		{0, 0, 0, 0},
	} {
		for _, curve := range []Curve{
			NewRateCapped(c.rate, c.burst, c.peak, c.seed),
			ar.RateCapped(c.rate, c.burst, c.peak, c.seed),
		} {
			for _, x := range []float64{0, 0.01, 0.04, 0.05, 0.5, 1, 7} {
				want := math.Min(c.peak*x+c.seed, c.rate*x+c.burst)
				if got := curve.Eval(x); !almostEq(got, want) {
					t.Errorf("%+v: Eval(%v) = %v, want min of the lines %v", c, x, got, want)
				}
			}
		}
	}
}

func TestRateLatency(t *testing.T) {
	s := NewRateLatency(1000, 0.5)
	cases := []struct{ t, want float64 }{
		{0, 0},
		{0.5, 0},
		{1, 500},
		{1.5, 1000},
	}
	for _, tc := range cases {
		if got := s.Eval(tc.t); !almostEq(got, tc.want) {
			t.Errorf("Eval(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestAdd(t *testing.T) {
	a := NewTokenBucket(100, 50)
	b := NewTokenBucket(200, 25)
	sum := Add(a, b)
	for _, x := range []float64{0, 0.1, 1, 3, 10} {
		if got, want := sum.Eval(x), a.Eval(x)+b.Eval(x); !almostEq(got, want) {
			t.Errorf("sum.Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestAddWithZero(t *testing.T) {
	a := NewTokenBucket(100, 50)
	if got := Add(a, Curve{}); !almostEq(got.Eval(2), a.Eval(2)) {
		t.Errorf("Add with zero changed curve: %v", got)
	}
	if got := Add(Curve{}, a); !almostEq(got.Eval(2), a.Eval(2)) {
		t.Errorf("Add with zero changed curve: %v", got)
	}
}

func TestSum(t *testing.T) {
	curves := []Curve{
		NewTokenBucket(10, 1),
		NewTokenBucket(20, 2),
		NewTokenBucket(30, 3),
	}
	total := Sum(curves...)
	if got := total.Eval(1); !almostEq(got, 66) {
		t.Errorf("Sum.Eval(1) = %v, want 66", got)
	}
}

func TestMin(t *testing.T) {
	a := NewTokenBucket(100, 1000) // slow with big burst
	b := NewTokenBucket(1000, 10)  // fast with small burst
	m := Min(a, b)
	for _, x := range []float64{0, 0.5, 1.0, 1.1, 2, 5} {
		want := math.Min(a.Eval(x), b.Eval(x))
		if got := m.Eval(x); !almostEq(got, want) {
			t.Errorf("Min.Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMinEqualsRateCapped(t *testing.T) {
	// NewRateCapped must agree with the explicit Min construction.
	rc := NewRateCapped(100, 1000, 1000, 100)
	mn := Min(NewTokenBucket(100, 1000), NewTokenBucket(1000, 100))
	for _, x := range []float64{0, 0.3, 1, 1.5, 4} {
		if !almostEq(rc.Eval(x), mn.Eval(x)) {
			t.Errorf("at t=%v: RateCapped=%v Min=%v", x, rc.Eval(x), mn.Eval(x))
		}
	}
}

// Property: curves from our constructors are nondecreasing and concave,
// and Add/Min preserve both.
func TestCurveConcavityProperty(t *testing.T) {
	f := func(r1, b1, r2, b2, p uint16) bool {
		a := NewRateCapped(float64(r1), float64(b1)+1, float64(p)+float64(r1)+1, 1)
		b := NewTokenBucket(float64(r2), float64(b2))
		for _, c := range []Curve{a, b, Add(a, b), Min(a, b)} {
			if !isConcaveNondecreasing(c) {
				t.Logf("violator: %v", c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func isConcaveNondecreasing(c Curve) bool {
	segs := c.segs
	prevRate := math.Inf(1)
	prevEnd := 0.0
	for i, s := range segs {
		if s.Rate < 0 {
			return false
		}
		if s.Rate > prevRate+1e-9 {
			return false // rates must not increase: concavity
		}
		if i > 0 && s.Y+1e-6 < prevEnd {
			return false // value must not drop at a breakpoint
		}
		prevRate = s.Rate
		end := s.Y
		if i+1 < len(segs) {
			end = s.Y + s.Rate*(segs[i+1].X-s.X)
		}
		prevEnd = end
	}
	return true
}

// Property: Add is commutative and associative (pointwise).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(r1, b1, r2, b2 uint16, x uint8) bool {
		a := NewTokenBucket(float64(r1), float64(b1))
		b := NewTokenBucket(float64(r2), float64(b2))
		tt := float64(x) / 16
		return almostEq(Add(a, b).Eval(tt), Add(b, a).Eval(tt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
