package pacer

import (
	"math"
	"testing"
)

// twin drives a VM and the oracle through the same calls and compares
// what a consumer can observe after each of them.
type twin struct {
	t  *testing.T
	vm *VM
	o  *oracleVM
}

func newTwin(t *testing.T, g Guarantee) *twin {
	return &twin{t: t, vm: NewVM(1, g, 0), o: newOracleVM(1, g, 0)}
}

func (w *twin) enqueue(now int64, dst, bytes int) {
	w.vm.Enqueue(now, dst, bytes, tag{1, dst, 0})
	w.o.enqueue(now, dst, bytes, tag{1, dst, 0})
	w.check("enqueue")
}

func (w *twin) setDestRate(now int64, dst int, rate float64) {
	w.vm.SetDestRate(now, dst, rate)
	w.o.setDestRate(now, dst, rate)
	w.check("SetDestRate")
}

// schedule commits up to upTo on both and returns, in commit order, the
// frames the call committed.
func (w *twin) schedule(upTo int64) []Packet {
	w.t.Helper()
	w.vm.Schedule(upTo)
	w.o.schedule(upTo)
	var out []Packet
	for {
		got, ok := w.vm.PopReady(math.MaxInt64)
		want, wok := w.o.popReady(math.MaxInt64)
		if ok != wok || (ok && !sameFrame(&got, &want.Packet)) {
			w.t.Fatalf("Schedule(%d): committed %+v %v, oracle %+v %v", upTo, got, ok, want, wok)
		}
		if !ok {
			break
		}
		out = append(out, got)
	}
	w.check("Schedule")
	return out
}

func (w *twin) check(after string) {
	w.t.Helper()
	r, ok := w.vm.NextEventTime()
	wr, wok := w.o.nextEventTime()
	if r != wr || ok != wok || w.vm.Pending() != w.o.pending() {
		w.t.Fatalf("after %s: NextEventTime %d %v, Pending %d; oracle %d %v, %d", after, r, ok, w.vm.Pending(), wr, wok, w.o.pending())
	}
}

// expect fails unless frames are exactly the (destination, release,
// gate) triples given.
func expect(t *testing.T, what string, frames []Packet, want ...[3]int64) {
	t.Helper()
	if len(frames) != len(want) {
		t.Fatalf("%s: committed %d frames, want %d", what, len(frames), len(want))
	}
	for i, p := range frames {
		if got := [3]int64{int64(p.Ref.(tag).dst), p.Release, int64(p.Gate)}; got != want[i] {
			t.Fatalf("%s: frame %d is (dst, release, gate) %v, want %v", what, i, got, want[i])
		}
	}
}

// TestScheduleBoundEdges aims at the edges of Schedule's lower bound: a
// head's destination-bucket stage bounds its release from below, so the
// scan evaluates the head with the least (stage, seq) and then only heads
// that sort below the best (release, seq) found so far. Buckets are hand
// built so that each edge is hit on purpose; rates of 1e8 and 1e9 bytes/s
// keep every token count and wait exact.
func TestScheduleBoundEdges(t *testing.T) {
	// (a) The least-stage head is a 1500-byte frame that the {B, S} or the
	// Bmax bucket holds back to 15 µs. A later-stage 84-byte frame fits
	// into what the bucket refills by 5 µs, so it wins.
	for _, c := range []struct {
		name string
		g    Guarantee
		gate uint8
	}{
		{"avg", Guarantee{BandwidthBps: 1e8, BurstBytes: 1500, MTUBytes: 1500}, GateAvg},
		{"cap", Guarantee{BurstBytes: 1500, BurstRateBps: 1e8, MTUBytes: 1500}, GateCap},
	} {
		w := newTwin(t, c.g)
		w.enqueue(0, 9, 1500)
		expect(t, c.name+" drain", w.schedule(0), [3]int64{9, 0, int64(GateNone)})
		w.enqueue(0, 1, 1500)  // stage 0, release 15,000
		w.enqueue(5000, 2, 84) // stage 5,000, release 5,000
		expect(t, c.name+" smaller wins", w.schedule(5000), [3]int64{2, 5000, int64(GateNone)})
		// 416 tokens are left at 5 µs; 1,084 more take 10.84 µs.
		expect(t, c.name+" larger after", w.schedule(1<<40), [3]int64{1, 15840, int64(c.gate)})
	}

	// (b) A tie between the best release and a head's stage. Destination 2
	// is enqueued first (smaller seq) behind a drained hose bucket: stage
	// 100 ns, release 100 ns. Destination 3 has stage 0, so it is
	// evaluated first, but the drained {B, S} bucket also puts it at
	// 100 ns. The head whose stage equals that release must still be
	// evaluated, and wins on seq.
	g := Guarantee{BandwidthBps: 1e9, BurstBytes: 1500, MTUBytes: 1500}
	w := newTwin(t, g)
	w.setDestRate(0, 2, 1e9)
	w.enqueue(0, 2, 1500)
	expect(t, "tie drain", w.schedule(0), [3]int64{2, 0, int64(GateNone)})
	w.enqueue(0, 2, 100) // seq 1: stage 100, release 100
	w.enqueue(0, 3, 100) // seq 2: stage 0, release 100
	expect(t, "tie", w.schedule(100), [3]int64{2, 100, int64(GateDest)})
	expect(t, "tie loser", w.schedule(1<<40), [3]int64{3, 200, int64(GateAvg)})

	// (c) Every stage past upTo: nothing is due, whatever the later
	// stages would say. Then a stage at upTo whose release is not.
	w = newTwin(t, g)
	w.setDestRate(0, 2, 1e9)
	w.enqueue(0, 2, 1500)
	expect(t, "break drain", w.schedule(0), [3]int64{2, 0, int64(GateNone)})
	w.enqueue(0, 2, 1500)  // stage 1,500 behind the hose
	w.enqueue(1000, 3, 84) // stage 1,000: its enqueue time
	expect(t, "break", w.schedule(999))
	expect(t, "first stage", w.schedule(1000), [3]int64{3, 1000, int64(GateNone)})
	// Stage 1,500 <= upTo, but {B, S} has 1,416 tokens then: release 1,584.
	expect(t, "stage due, release not", w.schedule(1500))
	expect(t, "last", w.schedule(1584), [3]int64{2, 1584, int64(GateAvg)})
}
