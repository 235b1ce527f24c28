package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pacer"
)

// TestInsertKeyed places keys with reserved (old) seqs among events
// already queued: into an empty slot, after the tail, before the head,
// between two nodes, and beyond the wheel span. Execution must follow
// (time, seq) whatever the order of insertion.
func TestInsertKeyed(t *testing.T) {
	type key struct {
		t   int64
		seq uint64
	}
	for _, tc := range []struct {
		name string
		keys []key // in insertion order
	}{
		{"empty slot", []key{{100, 5}}},
		{"tail", []key{{100, 1}, {100, 2}, {100, 7}}},
		{"head", []key{{100, 4}, {100, 6}, {100, 2}}},
		{"middle", []key{{100, 1}, {100, 9}, {100, 3}, {100, 5}, {100, 4}}},
		{"beyond span", []key{{wheelSpan + 50, 8}, {wheelSpan + 50, 3}, {3 * wheelSpan, 1}, {100, 6}}},
		{"slots apart", []key{{300, 2}, {200, 9}, {300, 1}, {200, 4}}},
	} {
		s := NewSim()
		var got []key
		for _, k := range tc.keys {
			k := k
			ev := s.alloc()
			ev.kind = evtFunc
			ev.seq = k.seq
			ev.fn = func() { got = append(got, key{s.Now(), k.seq}) }
			s.insertKeyed(k.t, ev)
		}
		if s.Pending() != len(tc.keys) {
			t.Errorf("%s: Pending = %d, want %d", tc.name, s.Pending(), len(tc.keys))
		}
		s.Run(1 << 20)
		want := append([]key(nil), tc.keys...)
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].t < want[j-1].t || want[j].t == want[j-1].t && want[j].seq < want[j-1].seq); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: executed %v, want %v", tc.name, got, want)
		}
	}
}

// oracleWire is the per-frame wire path the wire cursor replaced, kept
// as the oracle: laying out a batch schedules every frame as its own
// event, under the seq it takes at that moment. upcoming tracks the wire
// times of each host's scheduled, unfired frames, so a scenario can aim
// events at them.
type oracleWire struct {
	upcoming map[*Host][]int64
}

// install makes h run the oracle's batch loop.
func (o *oracleWire) install(h *Host) {
	h.batchLoopFn = func() { o.batchLoop(h) }
}

// batchLoop is Host.batchLoop as it was before the wire cursor.
func (o *oracleWire) batchLoop(h *Host) {
	h.parkedAt = 0
	batch := h.pacer.NextBatch(h.sim.Now())
	if batch == nil {
		earliest := int64(-1)
		for _, vm := range h.pacer.VMs() {
			if r, ok := vm.NextEventTime(); ok && (earliest < 0 || r < earliest) {
				earliest = r
			}
		}
		if earliest < 0 {
			h.loopRunning = false
			return
		}
		h.armLoop(earliest)
		return
	}
	for _, fp := range batch.Packets {
		var np *Packet
		if fp.Void {
			np = h.sim.AllocPacket()
			np.Src = h.ID
			np.Dst = -1
			np.Size = fp.Bytes
			np.Void = true
		} else {
			np = fp.Ref.(*Packet)
			np.PacedRelease = fp.Release
			np.Gate = fp.Gate
		}
		o.upcoming[h] = append(o.upcoming[h], fp.Wire)
		h.sim.schedule(fp.Wire, evtFunc, 0, func() {
			o.upcoming[h] = o.upcoming[h][1:]
			h.wirePacket(np)
		}, nil, nil, nil)
	}
	h.sim.At(batch.End, h.batchLoopFn)
}

// spineRec is one observation-spine event as the oracle comparison sees
// it.
type spineRec struct {
	kind EventKind
	now  int64
	at   int32
	id   uint64
	arg  int64
}

// wireScenario is a seeded random paced run: 1–8 paced hosts with 1–4
// VMs each, every VM sending MTU and ack-sized frames to 1–6
// destinations in bursts; unpaced sends, host failures and restores
// aimed at the wire times of frames already laid out; all through the
// full topology. Every random draw happens inside an executed event, so
// two engines agree on the draws for as long as they agree on the order
// of execution.
type wireScenario struct {
	nw       *Network
	rng      *rand.Rand
	upcoming func(h *Host) []int64
	log      []spineRec
	nextID   uint64
	aimed    int // events scheduled onto a laid-out frame's wire time
}

func runWireScenario(t *testing.T, seed int64, oracle bool) *wireScenario {
	t.Helper()
	nw := Build(NewSim(), testTree(t), Options{PropNs: 200})
	sc := &wireScenario{nw: nw, rng: rand.New(rand.NewSource(seed))}
	if oracle {
		o := &oracleWire{upcoming: map[*Host][]int64{}}
		sc.upcoming = func(h *Host) []int64 { return o.upcoming[h] }
		for _, h := range nw.Hosts {
			o.install(h)
		}
	} else {
		sc.upcoming = func(h *Host) []int64 {
			var ts []int64
			for _, f := range h.wire[h.wireHead:] {
				ts = append(ts, f.t)
			}
			return ts
		}
	}
	nw.Sim.Subscribe(func(ev Event) {
		sc.log = append(sc.log, spineRec{ev.Kind, nw.Sim.Now(), ev.At, ev.P.ID, ev.Arg})
	}, EvPacedEnqueue, EvPacedWire, EvPortEnqueue, EvPortTransmit, EvDeliver)
	nw.Sim.Subscribe(sc.onWire, EvPacedWire)

	hosts := len(nw.Hosts)
	paced := 1 + sc.rng.Intn(hosts)
	vmID := 100
	for _, hid := range sc.rng.Perm(hosts)[:paced] {
		h := nw.Hosts[hid]
		h.EnablePacing(pacer.NewBatcher(10 * gbps))
		for v := 1 + sc.rng.Intn(4); v > 0; v-- {
			g := pacer.Guarantee{
				BandwidthBps: (0.5 + 4.5*sc.rng.Float64()) * gbps,
				BurstBytes:   1500 + 28_500*sc.rng.Float64(),
				BurstRateBps: 10 * gbps,
				MTUBytes:     1518,
			}
			vm := pacer.NewVM(vmID, g, 0)
			var dests []int
			for _, d := range sc.rng.Perm(hosts)[:1+sc.rng.Intn(min(6, hosts-1))] {
				if d == hid {
					d = (d + 1) % hosts
				}
				dests = append(dests, d)
				if sc.rng.Intn(2) == 0 {
					vm.SetDestRate(0, d, g.BandwidthBps/float64(1+sc.rng.Intn(3)))
				}
			}
			h.AddVM(vm)
			sc.startVM(h, vm.ID, dests)
			vmID++
		}
	}
	nw.Run(2_000_000)
	return sc
}

// startVM drives one paced VM: bursts of 1–8 frames, MTU or ack-sized,
// to one of its destinations, every 1–40 µs until 1.5 ms.
func (sc *wireScenario) startVM(h *Host, vm int, dests []int) {
	s := sc.nw.Sim
	var send func()
	send = func() {
		dst := dests[sc.rng.Intn(len(dests))]
		size := 1518
		if sc.rng.Intn(3) == 0 {
			size = 64
		}
		for n := 1 + sc.rng.Intn(8); n > 0; n-- {
			sc.nextID++
			p := s.AllocPacket()
			p.ID, p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = sc.nextID, h.ID, dst, vm, dst, size
			h.SendPaced(vm, p)
		}
		if next := s.Now() + 1_000 + sc.rng.Int63n(39_000); next < 1_500_000 {
			s.At(next, send)
		}
	}
	s.At(sc.rng.Int63n(20_000), send)
}

// onWire, on every paced data frame laid on a wire, may aim events at
// frames of that host's batch that are not queued yet: an unpaced send
// from some host, or a host failure with its restore a little later.
// Each lands in a wheel slot the wire cursor will later re-queue into
// under an older seq.
func (sc *wireScenario) onWire(ev Event) {
	s := sc.nw.Sim
	up := sc.upcoming(sc.nw.Hosts[ev.At])
	if len(up) < 2 || sc.rng.Intn(3) != 0 {
		return
	}
	at := up[1+sc.rng.Intn(len(up)-1)]
	sc.aimed++
	h := sc.nw.Hosts[sc.rng.Intn(len(sc.nw.Hosts))]
	switch sc.rng.Intn(5) {
	case 0:
		s.At(at, func() {
			h.Fail()
			s.At(s.Now()+sc.rng.Int63n(20_000), h.Restore)
		})
	default:
		dst := sc.rng.Intn(len(sc.nw.Hosts))
		s.At(at, func() {
			sc.nextID++
			p := s.AllocPacket()
			p.ID, p.Src, p.Dst, p.SrcVM, p.DstVM, p.Size = sc.nextID, h.ID, dst, -1, dst, 1500
			h.Send(p)
		})
	}
}

// TestWireCursorMatchesPerFrameOracle: on seeded random paced runs the
// wire cursor produces exactly the spine event stream — kind, time,
// place, packet, argument, in order — that scheduling one event per
// frame did.
func TestWireCursorMatchesPerFrameOracle(t *testing.T) {
	aimed, events := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		want := runWireScenario(t, seed, true)
		got := runWireScenario(t, seed, false)
		if !reflect.DeepEqual(got.log, want.log) {
			for i := range got.log {
				if i >= len(want.log) || got.log[i] != want.log[i] {
					var w spineRec
					if i < len(want.log) {
						w = want.log[i]
					}
					t.Fatalf("seed %d: event %d: got %+v, oracle %+v (of %d / %d events)", seed, i, got.log[i], w, len(got.log), len(want.log))
				}
			}
			t.Fatalf("seed %d: %d events, oracle %d", seed, len(got.log), len(want.log))
		}
		if c, w := got.nw.Sim.RuntimeCounters().Events, want.nw.Sim.RuntimeCounters().Events; c != w {
			t.Errorf("seed %d: %d engine events, oracle %d", seed, c, w)
		}
		aimed += got.aimed
		events += len(got.log)
	}
	if aimed < 1000 {
		t.Errorf("only %d events aimed at laid-out frames: the scenarios do not exercise re-queueing", aimed)
	}
	t.Logf("%d spine events, %d aimed at frame wire times", events, aimed)
}

// TestPacedAllToAllFarHWM: a paced batch is one node however far ahead
// it is laid out, and its frames re-queue inside the wheel, so the
// overflow heap holds at most what each host keeps far ahead — its
// batch-loop wake at batch end and its wire node while the batch starts
// in the future — not one entry per frame.
func TestPacedAllToAllFarHWM(t *testing.T) {
	_, nw := runPacedAllToAll(t)
	hosts := int64(len(nw.Hosts))
	hwm := nw.Sim.RuntimeCounters().FarHWM
	t.Logf("FarHWM %d", hwm)
	if hwm > 2*hosts {
		t.Errorf("FarHWM = %d with %d paced hosts, want at most %d", hwm, hosts, 2*hosts)
	}
}
