package netsim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTimerFiresOnceAtDeadline(t *testing.T) {
	s := NewSim()
	var fired []int64
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	tm.Arm(10_000)
	s.Run(1_000_000)
	if !reflect.DeepEqual(fired, []int64{10_000}) {
		t.Fatalf("fired at %v, want [10000]", fired)
	}
	if tm.armed {
		t.Error("timer still armed after firing")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after drain", s.Pending())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewSim()
	n := 0
	tm := s.NewTimer(func() { n++ })
	tm.Arm(10_000)
	s.At(5_000, tm.Stop)
	s.Run(1_000_000)
	if n != 0 {
		t.Errorf("stopped timer fired %d times", n)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after drain", s.Pending())
	}
	// A stopped timer whose node is still queued re-arms onto it.
	tm.Arm(1_010_000)
	tm.Stop()
	tm.Arm(1_020_000)
	s.Run(2_000_000)
	if n != 1 || s.Pending() != 0 {
		t.Errorf("fired %d times, %d pending; want 1, 0", n, s.Pending())
	}
}

// TestTimerRearm covers the three directions a re-arm can move the
// deadline, on both sides of the wheel span.
func TestTimerRearm(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, again int64
	}{
		{"later-far", 100_000, 300_000},
		{"later-near", 1_000, 3_000},
		{"near-to-far", 1_000, 300_000},
		{"equal", 100_000, 100_000},
		{"earlier-far", 300_000, 100_000},
		{"far-to-near", 300_000, 1_000},
	} {
		s := NewSim()
		var fired []int64
		tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
		tm.Arm(tc.first)
		s.At(500, func() { tm.Arm(tc.again) })
		s.Run(1_000_000)
		if !reflect.DeepEqual(fired, []int64{tc.again}) {
			t.Errorf("%s: fired at %v, want [%d]", tc.name, fired, tc.again)
		}
		if s.Pending() != 0 {
			t.Errorf("%s: %d events pending after drain", tc.name, s.Pending())
		}
	}
}

func TestTimerPastDeadlineClamps(t *testing.T) {
	s := NewSim()
	var at int64 = -1
	tm := s.NewTimer(func() { at = s.Now() })
	s.At(50, func() { tm.Arm(10) })
	s.Run(100)
	if at != 50 {
		t.Errorf("past-deadline arm fired at %d, want 50", at)
	}
}

func TestTimerArmFromOwnCallback(t *testing.T) {
	s := NewSim()
	var fired []int64
	var tm *Timer
	tm = s.NewTimer(func() {
		fired = append(fired, s.Now())
		if len(fired) < 4 {
			tm.Arm(s.Now() + 10_000)
		}
	})
	tm.Arm(10_000)
	s.Run(1_000_000)
	if want := []int64{10_000, 20_000, 30_000, 40_000}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
}

// TestTimerOneNodePerTimer is the point of the primitive: a timer
// pushed ahead on every event keeps one node in the overflow heap,
// where a fresh event per arm would keep one per arm.
func TestTimerOneNodePerTimer(t *testing.T) {
	s := NewSim()
	n := 0
	tm := s.NewTimer(func() { n++ })
	const arms = 10_000
	left := arms
	var tick func()
	tick = func() {
		tm.Arm(s.Now() + 200_000_000)
		if left--; left > 0 {
			s.After(100, tick)
		}
	}
	s.At(0, tick)
	s.Run(arms * 100)
	if n != 0 {
		t.Fatalf("fired %d times under continuous re-arm", n)
	}
	if hwm := s.RuntimeCounters().FarHWM; hwm != 1 {
		t.Errorf("FarHWM = %d after %d arms, want 1", hwm, arms)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d after %d arms, want 1", s.Pending(), arms)
	}
	s.Run(1_000_000_000)
	if n != 1 || s.Pending() != 0 {
		t.Errorf("fired %d times, %d pending; want 1, 0", n, s.Pending())
	}
}

func TestTimerArmAllocsNothing(t *testing.T) {
	s := NewSim()
	tm := s.NewTimer(func() {})
	tm.Arm(1_000_000) // carves the first node chunk
	next := int64(1_000_000)
	if a := testing.AllocsPerRun(1000, func() {
		next += 1000
		tm.Arm(next)
	}); a != 0 {
		t.Errorf("re-arm to a later deadline: %v allocs/op, want 0", a)
	}
	// Full cycles: arm, expire, arm again — through the wheel, through
	// the overflow heap, and through a lazy re-push.
	for _, d := range []int64{10, 100_000} {
		if a := testing.AllocsPerRun(1000, func() {
			tm.Arm(s.Now() + d)
			tm.Arm(s.Now() + 2*d)
			s.Run(s.Now() + 2*d)
		}); a != 0 {
			t.Errorf("arm/expire cycle at +%d ns: %v allocs/op, want 0", d, a)
		}
	}
}

// armer is what the property test drives: the engine Timer, or the
// scheme it replaced.
type armer interface {
	Arm(t int64)
	Stop()
}

// closureTimer is the retired closure-per-arm scheme, kept here as the
// oracle: every Arm schedules a fresh closure event under a new
// generation, and a popped closure whose generation is stale returns.
type closureTimer struct {
	s     *Sim
	fn    func()
	gen   uint64
	armed bool
}

func (o *closureTimer) Arm(t int64) {
	o.gen++
	gen := o.gen
	o.armed = true
	o.s.At(t, func() {
		if o.gen != gen || !o.armed {
			return
		}
		o.armed = false
		o.fn()
	})
}

func (o *closureTimer) Stop() { o.armed = false }

// scriptRec is one executed script event: a timer firing (who < 100)
// or an ordinary At event (who >= 100), and when.
type scriptRec struct {
	who int
	t   int64
}

// timerScript is a seeded random interleaving of Arm (later, equal,
// earlier, past deadline), Stop, Arm-from-own-callback and ordinary At
// events forced onto timer deadlines. Its log is the global execution
// order of everything it scheduled; every random draw happens inside
// an executed event, so two runs agree on the draws for as long as
// they agree on the order.
type timerScript struct {
	s        *Sim
	rng      *rand.Rand
	timers   []armer
	deadline []int64 // last requested deadline per timer
	budget   int
	plain    int
	log      []scriptRec
}

// startTimerScript schedules the script's driver events on s; running
// s executes it. mk builds timer i with the given callback.
func startTimerScript(s *Sim, seed int64, mk func(s *Sim, fn func()) armer) *timerScript {
	sc := &timerScript{s: s, rng: rand.New(rand.NewSource(seed)), budget: 600}
	for i := 0; i < 6; i++ {
		i := i
		sc.timers = append(sc.timers, mk(s, func() {
			sc.log = append(sc.log, scriptRec{i, s.Now()})
			switch sc.rng.Intn(4) {
			case 0, 1:
				sc.arm(i, s.Now()+sc.delta()) // from its own callback
			case 2:
				sc.op()
			}
		}))
		sc.deadline = append(sc.deadline, 0)
	}
	for i := 0; i < 60; i++ {
		s.At(sc.rng.Int63n(200_000), sc.driver)
	}
	return sc
}

// delta draws a delay that lands in the same nanosecond, inside the
// wheel, on its edge, or beyond it.
func (sc *timerScript) delta() int64 {
	switch sc.rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return 1 + sc.rng.Int63n(100)
	case 2:
		return wheelSpan - 1 + sc.rng.Int63n(3)
	case 3:
		return sc.rng.Int63n(3 * wheelSpan)
	default:
		return sc.rng.Int63n(40 * wheelSpan)
	}
}

func (sc *timerScript) arm(i int, t int64) {
	sc.deadline[i] = t
	sc.timers[i].Arm(t)
}

// logged schedules an ordinary event at t that only records itself.
func (sc *timerScript) logged(t int64) {
	sc.plain++
	who := 100 + sc.plain
	sc.s.At(t, func() { sc.log = append(sc.log, scriptRec{who, sc.s.Now()}) })
}

func (sc *timerScript) driver() {
	sc.plain++
	sc.log = append(sc.log, scriptRec{100 + sc.plain, sc.s.Now()})
	for n := 1 + sc.rng.Intn(3); n > 0; n-- {
		sc.op()
	}
}

func (sc *timerScript) op() {
	if sc.budget == 0 {
		return
	}
	sc.budget--
	now := sc.s.Now()
	i := sc.rng.Intn(len(sc.timers))
	d := sc.deadline[i]
	switch sc.rng.Intn(9) {
	case 0: // later than the last deadline
		sc.arm(i, max(d, now)+1+sc.delta())
	case 1: // the same deadline again
		sc.arm(i, d)
	case 2: // earlier
		if d > now {
			sc.arm(i, now+sc.rng.Int63n(d-now))
		} else {
			sc.arm(i, now+sc.delta())
		}
	case 3: // already past
		sc.arm(i, now-1-sc.rng.Int63n(1000))
	case 4:
		sc.timers[i].Stop()
	case 5: // another timer's nanosecond
		sc.arm(i, sc.deadline[sc.rng.Intn(len(sc.timers))])
	case 6: // ordinary events around the deadline, scheduled after the arm
		sc.logged(d)
		sc.logged(d)
	case 7: // and before a re-arm onto the same nanosecond
		t := now + sc.delta()
		sc.logged(t)
		sc.arm(i, t)
		sc.logged(t)
	case 8: // more work later
		sc.s.At(now+sc.delta(), sc.driver)
	}
}

func newEngineTimer(s *Sim, fn func()) armer { return s.NewTimer(fn) }
func newClosureTimer(s *Sim, fn func()) armer {
	return &closureTimer{s: s, fn: fn}
}

// oracleLog runs the script standalone under the closure-per-arm scheme.
func oracleLog(seed int64) []scriptRec {
	s := NewSim()
	sc := startTimerScript(s, seed, newClosureTimer)
	s.Run(1 << 40)
	return sc.log
}

// firstDiff reports where two logs part ways.
func firstDiff(t *testing.T, got, want []scriptRec) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, oracle %+v", i, got[i], want[i])
			return
		}
	}
	t.Errorf("logs have %d and %d events", len(got), len(want))
}

// TestTimerMatchesClosurePerArm is the equivalence the engine timer is
// held to: against the scheme it replaced, every timer fires at the
// same nanosecond and every event — timer or not — executes in the
// same global order.
func TestTimerMatchesClosurePerArm(t *testing.T) {
	fires := 0
	for seed := int64(1); seed <= 300; seed++ {
		want := oracleLog(seed)
		s := NewSim()
		sc := startTimerScript(s, seed, newEngineTimer)
		s.Run(1 << 40)
		if !reflect.DeepEqual(sc.log, want) {
			t.Errorf("seed %d diverges from the oracle", seed)
			firstDiff(t, sc.log, want)
			return
		}
		if s.Pending() != 0 {
			t.Errorf("seed %d: %d events pending after drain", seed, s.Pending())
		}
		for _, r := range want {
			if r.who < 100 {
				fires++
			}
		}
	}
	if fires < 1000 {
		t.Errorf("only %d timer firings over all seeds: the script is not exercising the timer", fires)
	}
}
