package netsim

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestRunCtxCancelled(t *testing.T) {
	s := NewSim()
	fired := 0
	for i := 0; i < 100; i++ {
		i := i
		s.At(int64(i), func() { fired++ })
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := s.RunCtx(ctx, 1000)
	if n != 0 || fired != 0 {
		t.Errorf("pre-cancelled RunCtx executed %d events", fired)
	}
	if s.Now() != 0 {
		t.Errorf("cancelled run advanced clock to %d", s.Now())
	}
	// The same run completes normally afterwards.
	if n := s.RunCtx(context.Background(), 1000); n != 100 || fired != 100 {
		t.Errorf("resumed RunCtx executed %d events (fired %d), want 100", n, fired)
	}
	if s.Now() != 1000 {
		t.Errorf("Now = %d, want 1000", s.Now())
	}
}

func TestRunCtxMidRunCancel(t *testing.T) {
	s := NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	for i := 0; i < 2000; i++ {
		i := i
		s.At(int64(i), func() {
			fired++
			if fired == 300 {
				cancel()
			}
		})
	}
	n := s.RunCtx(ctx, 1e9)
	// Cancellation is polled every 256 events, so the run stops within
	// one poll interval of the cancel.
	if n >= 2000 {
		t.Errorf("cancel ignored: ran all %d events", n)
	}
	if n < 300 || n > 300+256 {
		t.Errorf("stopped after %d events, want within 256 of 300", n)
	}
	if s.Now() >= 1e9 {
		t.Error("cancelled run advanced clock to horizon")
	}
}

func TestEveryTicksAtPeriod(t *testing.T) {
	s := NewSim()
	var ticks []int64
	s.Every(100, 1000, func(now int64) {
		if now != s.Now() {
			t.Errorf("tick arg %d != sim now %d", now, s.Now())
		}
		ticks = append(ticks, now)
	})
	s.Run(5000)
	if len(ticks) != 10 {
		t.Fatalf("ticks = %v, want 10 of them", ticks)
	}
	for i, tk := range ticks {
		if tk != int64(100*(i+1)) {
			t.Errorf("tick %d at %d, want %d", i, tk, 100*(i+1))
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Every left %d events pending past its stop time", s.Pending())
	}
}

func TestEveryDegenerate(t *testing.T) {
	s := NewSim()
	s.Every(0, 1000, func(int64) { t.Error("zero period ticked") })
	s.Every(100, 1000, nil)
	s.Run(2000)
}

func TestPortWindowTracker(t *testing.T) {
	nw := buildNet(t)
	tr := AttachPortWindowTracker(nw)

	if port, queueNs := tr.WorstPort(); port != -1 || queueNs != 0 {
		t.Errorf("idle tracker attributed port %d (+%dns), want -1, 0", port, queueNs)
	}

	// Two hosts blast host 1 at their own line rate: the shared
	// tor0->srv1 port sees 2x its drain rate and builds the deepest
	// queue in the fabric.
	for i := 0; i < 200; i++ {
		at := int64(i) * 1200
		for _, hid := range []int{0, 2} {
			hid := hid
			nw.Sim.At(at, func() {
				nw.Hosts[hid].Send(&Packet{Src: hid, Dst: 1, Size: 1500})
			})
		}
	}
	nw.Sim.Run(10e6)

	port, queueNs := tr.WorstPort()
	if port < 0 {
		t.Fatal("no worst port after congestion")
	}
	want := nw.Tree.RackDownPort(1).ID
	if int(port) != want {
		t.Errorf("worst port = %d (%s), want %d (%s)",
			port, nw.Queues[port].Name, want, nw.Queues[want].Name)
	}
	if queueNs <= 0 {
		t.Errorf("queueNs = %d, want > 0", queueNs)
	}
	if tr.maxBytes[want] <= 0 {
		t.Error("window max bytes not tracked")
	}

	tr.Reset()
	if port, queueNs := tr.WorstPort(); port != -1 || queueNs != 0 {
		t.Errorf("tracker attributed port %d (+%dns) after Reset, want -1, 0", port, queueNs)
	}
	if tr.maxBytes[want] != 0 {
		t.Error("window max bytes nonzero after Reset")
	}
}

// TestPortWindowTouchedEquivalenceProperty drives a tracker with random
// enqueue streams over many windows, some idle, with occupancies drawn
// so that equal delays on several ports and delays that round to 0 ns
// are common, and holds each window's culprit to a full scan of a
// dense per-port record kept here. Reset must clear every port.
func TestPortWindowTouchedEquivalenceProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	nw := buildNet(t)
	tr := AttachPortWindowTracker(nw)
	n := len(nw.Queues)
	maxBytes := make([]int64, n)
	for w := 0; w < 20_000; w++ {
		for k := rng.Intn(4) * rng.Intn(12); k > 0; k-- {
			port := int32(rng.Intn(n))
			b := []int64{1, 1500, 3000, 1 + rng.Int63n(1e6)}[rng.Intn(4)]
			tr.enqueue(port, b)
			maxBytes[port] = max(maxBytes[port], b)
		}
		wantPort, wantNs := int32(-1), int64(0)
		for id, b := range maxBytes {
			if d := int64(float64(b) / nw.Queues[id].RateBps * 1e9); d > wantNs {
				wantPort, wantNs = int32(id), d
			}
		}
		if port, queueNs := tr.WorstPort(); port != wantPort || queueNs != wantNs {
			t.Fatalf("seed %d: window %d: WorstPort = %d, %d; a full scan gives %d, %d", seed, w, port, queueNs, wantPort, wantNs)
		}
		tr.Reset()
		clear(maxBytes)
		for id := range n {
			if tr.maxBytes[id] != 0 {
				t.Fatalf("seed %d: window %d: port %d not cleared by Reset", seed, w, id)
			}
		}
	}
}
