package netcal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQueueBoundTokenBucket(t *testing.T) {
	// A_{B,S} into a pure-rate server C >= B: classic bound S/C.
	a := NewTokenBucket(500, 1000) // 500 B/s, 1000 B burst
	s := NewRateLatency(1000, 0)   // 1000 B/s server
	if got, want := QueueBound(a, s), 1.0; !almostEq(got, want) {
		t.Errorf("QueueBound = %v, want %v", got, want)
	}
}

func TestQueueBoundWithLatency(t *testing.T) {
	// Server latency adds directly to the horizontal deviation.
	a := NewTokenBucket(500, 1000)
	s := NewRateLatency(1000, 0.25)
	if got, want := QueueBound(a, s), 1.25; !almostEq(got, want) {
		t.Errorf("QueueBound = %v, want %v", got, want)
	}
}

func TestQueueBoundOverload(t *testing.T) {
	a := NewTokenBucket(2000, 10)
	s := NewRateLatency(1000, 0)
	if got := QueueBound(a, s); !math.IsInf(got, 1) {
		t.Errorf("QueueBound overloaded = %v, want +Inf", got)
	}
	if got := Backlog(a, s); !math.IsInf(got, 1) {
		t.Errorf("Backlog overloaded = %v, want +Inf", got)
	}
}

func TestQueueBoundZeroArrival(t *testing.T) {
	s := NewRateLatency(1000, 0)
	if got := QueueBound(Curve{}, s); got != 0 {
		t.Errorf("QueueBound(zero) = %v, want 0", got)
	}
	if got := Backlog(Curve{}, s); got != 0 {
		t.Errorf("Backlog(zero) = %v, want 0", got)
	}
	if got := BusyPeriod(Curve{}, s); got != 0 {
		t.Errorf("BusyPeriod(zero) = %v, want 0", got)
	}
}

func TestBacklogTokenBucket(t *testing.T) {
	// Peak-rate-capped arrivals into a slower server: backlog accrues
	// until the crossover, then shrinks. A'{rate=100,burst=1000,
	// peak=1000,seed=0} crosses its token-bucket piece at
	// tx = 1000/900 = 10/9 s; worst backlog there:
	// A(tx) = 1000·10/9, S(tx) = 500·10/9 -> 5000/9 bytes.
	a := NewRateCapped(100, 1000, 1000, 0)
	s := NewRateLatency(500, 0)
	if got, want := Backlog(a, s), 5000.0/9; !almostEq(got, want) {
		t.Errorf("Backlog = %v, want %v", got, want)
	}
}

func TestBacklogMatchesQueueBoundForPureRate(t *testing.T) {
	// For a pure-rate server C, backlog = C * queue-bound when the
	// worst horizontal and vertical deviations coincide at t=0 burst.
	a := NewTokenBucket(300, 600)
	s := NewRateLatency(1000, 0)
	qb := QueueBound(a, s)
	bl := Backlog(a, s)
	if !almostEq(bl, 1000*qb) {
		t.Errorf("backlog %v != C*qbound %v", bl, 1000*qb)
	}
}

func TestBusyPeriod(t *testing.T) {
	// a = 500t + 1000, s = 1000t: meet at t=2.
	a := NewTokenBucket(500, 1000)
	s := NewRateLatency(1000, 0)
	if got, want := BusyPeriod(a, s), 2.0; !almostEq(got, want) {
		t.Errorf("BusyPeriod = %v, want %v", got, want)
	}
}

func TestBusyPeriodNeverMeets(t *testing.T) {
	a := NewTokenBucket(1000, 10)
	s := NewRateLatency(1000, 0) // equal rates, arrival stays above by 10 B
	if got := BusyPeriod(a, s); !math.IsInf(got, 1) {
		t.Errorf("BusyPeriod = %v, want +Inf", got)
	}
}

func TestQueueBoundPaperExample(t *testing.T) {
	// Paper §4.2.1: a 10 Gbps port with a 100 KB buffer has an 80 µs
	// queue capacity. Verify the same arithmetic with curves: a source
	// bursting 100 KB at line rate into a 10 Gbps server is delayed at
	// most 100KB/10Gbps = 80 µs.
	const gbps = 1e9 / 8 // bytes/sec
	a := NewTokenBucket(0, 100e3)
	s := NewRateLatency(10*gbps, 0)
	if got, want := QueueBound(a, s), 80e-6; !almostEq(got, want) {
		t.Errorf("QueueBound = %v, want %v", got, want)
	}
}

// Property: queue bound is monotone in burst and antitone in service
// rate.
func TestQueueBoundMonotonicityProperty(t *testing.T) {
	f := func(rate, burst, extra uint16, c uint16) bool {
		r := float64(rate) + 1
		b := float64(burst)
		cap1 := r + float64(c) + 1 // service faster than arrival
		a1 := NewTokenBucket(r, b)
		a2 := NewTokenBucket(r, b+float64(extra))
		s := NewRateLatency(cap1, 0)
		q1 := QueueBound(a1, s)
		q2 := QueueBound(a2, s)
		if q2+1e-9 < q1 {
			return false
		}
		s2 := NewRateLatency(cap1*2, 0)
		q3 := QueueBound(a1, s2)
		return q3 <= q1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: hose aggregate is pointwise <= plain aggregate (Silo's
// tightening never loosens the bound), hence its queue bound is <= too.
func TestHoseTighterProperty(t *testing.T) {
	f := func(mRaw, nRaw uint8, rate, burst uint16) bool {
		n := int(nRaw%62) + 2
		m := int(mRaw)%(n-1) + 1 // 1..n-1
		r := float64(rate) + 1
		b := float64(burst) + 1
		peak := 4 * r
		hose := HoseAggregate(m, n, r, b, peak, 0)
		plain := PlainAggregate(m, r, b, peak, 0)
		for _, x := range []float64{0, 0.1, 1, 10, 100} {
			if hose.Eval(x) > plain.Eval(x)+1e-6 {
				return false
			}
		}
		srv := NewRateLatency(float64(n)*r*4+1, 0)
		return QueueBound(hose, srv) <= QueueBound(plain, srv)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHoseAggregateShape(t *testing.T) {
	// Tenant of 9 VMs, 3 on the left: crossing bandwidth is
	// min(3,6)*B = 3B; burst is 3S regardless.
	c := HoseAggregate(3, 9, 100, 10, 0, 0)
	if got := c.LongTermRate(); !almostEq(got, 300) {
		t.Errorf("rate = %v, want 300", got)
	}
	if got := c.Eval(0); !almostEq(got, 30) {
		t.Errorf("burst = %v, want 30", got)
	}
	// 6 on the left: bandwidth still min(6,3)*B = 3B, burst 6S.
	c = HoseAggregate(6, 9, 100, 10, 0, 0)
	if got := c.LongTermRate(); !almostEq(got, 300) {
		t.Errorf("rate = %v, want 300", got)
	}
	if got := c.Eval(0); !almostEq(got, 60) {
		t.Errorf("burst = %v, want 60", got)
	}
}

func TestHoseAggregateDegenerate(t *testing.T) {
	if c := HoseAggregate(0, 5, 1, 1, 0, 0); !c.Zero() {
		t.Error("m=0 should yield zero curve")
	}
	// All VMs on one side: no sustained crossing bandwidth.
	c := HoseAggregate(5, 5, 100, 10, 0, 0)
	if got := c.LongTermRate(); got != 0 {
		t.Errorf("rate = %v, want 0", got)
	}
}

func TestPropagate(t *testing.T) {
	// A_{B,S} through a port with queue capacity c: egress burst B·c+S
	// (paper: "the egress traffic's arrival curve is A_{B,(B.c+S)}").
	in := NewTokenBucket(1000, 500)
	out := Propagate(in, 0.1, 0, 0)
	if got := out.LongTermRate(); !almostEq(got, 1000) {
		t.Errorf("rate = %v, want 1000", got)
	}
	if got, want := out.Eval(0), 1000*0.1+500; !almostEq(got, want) {
		t.Errorf("burst = %v, want %v", got, want)
	}
}

func TestPropagateLineRateCap(t *testing.T) {
	in := NewTokenBucket(1000, 500)
	out := Propagate(in, 0.1, 10000, 100)
	// At t=0 only the MTU seed is instantaneous.
	if got := out.Eval(0); got > 600+1e-6 {
		t.Errorf("instantaneous egress = %v, too large", got)
	}
	// Long-term rate unchanged.
	if got := out.LongTermRate(); !almostEq(got, 1000) {
		t.Errorf("rate = %v, want 1000", got)
	}
}

// Property: propagation never reduces a curve (bunching only worsens
// burstiness) and never changes the sustained rate.
func TestPropagateInflatesProperty(t *testing.T) {
	f := func(rate, burst uint16, cap8 uint8) bool {
		r := float64(rate) + 1
		b := float64(burst)
		c := float64(cap8) / 100
		in := NewTokenBucket(r, b)
		out := Propagate(in, c, 0, 0)
		if !almostEq(out.LongTermRate(), r) {
			return false
		}
		for _, x := range []float64{0, 0.5, 2, 20} {
			if out.Eval(x)+1e-6 < in.Eval(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFigure7BurstDoubling(t *testing.T) {
	// Paper Fig. 7: f1 (rate C/2, burst 1 pkt) shares a C-capacity port
	// with f2 (rate C/4, burst 1 pkt); f1 can egress with its burst
	// doubled. Our conservative Propagate must dominate that outcome.
	const C = 1000.0 // bytes/sec
	const pkt = 1.0
	f1 := NewTokenBucket(C/2, pkt)
	f2 := NewTokenBucket(C/4, pkt)
	srv := NewRateLatency(C, 0)
	p := BusyPeriod(Add(f1, f2), srv)
	// Egress burst per Kurose: traffic f1 can inject within p.
	egressBurst := f1.Eval(p)
	if egressBurst < 2*pkt-1e-9 {
		t.Errorf("egress burst %v should be at least doubled (2)", egressBurst)
	}
	// Propagate with c = queue capacity >= p must be at least as big.
	out := Propagate(f1, p, 0, 0)
	if out.Eval(0)+1e-9 < egressBurst {
		t.Errorf("Propagate burst %v < Kurose bound %v", out.Eval(0), egressBurst)
	}
}
