package netsim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // FIFO at equal times
	s.Run(100)
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 100 {
		t.Errorf("Now = %d, want 100", s.Now())
	}
}

func TestEventPastClamps(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(50, func() {
		s.At(10, func() { fired = true }) // in the past; clamp to now
	})
	s.Run(60)
	if !fired {
		t.Error("past event never fired")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(100, func() { fired = true })
	n := s.Run(50)
	if fired || n != 0 {
		t.Error("event beyond horizon executed")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run(150)
	if !fired {
		t.Error("event not executed after horizon extension")
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewSim()
	var at int64
	s.At(40, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run(100)
	if at != 45 {
		t.Errorf("After fired at %d, want 45", at)
	}
}

type sink struct{ got []*Packet }

func (s *sink) Receive(p *Packet) { s.got = append(s.got, p) }

func TestQueueSerializationAndPropagation(t *testing.T) {
	s := NewSim()
	dst := &sink{}
	// 1000 bytes at 1e9 B/s = 1000 ns serialization; +500 ns prop.
	q := NewQueue(s, "q", 1e9, 10000, 500, dst)
	q.Enqueue(&Packet{ID: 1, Size: 1000})
	s.Run(10_000)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d packets", len(dst.got))
	}
	// Delivery at 1000 + 500 = 1500 ns; verify via event count/time.
	s2 := NewSim()
	var deliveredAt int64
	q2 := NewQueue(s2, "q", 1e9, 10000, 500, ReceiverFunc(func(p *Packet) { deliveredAt = s2.Now() }))
	q2.Enqueue(&Packet{Size: 1000})
	s2.Run(10_000)
	if deliveredAt != 1500 {
		t.Errorf("delivered at %d ns, want 1500", deliveredAt)
	}
}

func TestQueueFIFOAndBackToBack(t *testing.T) {
	s := NewSim()
	var times []int64
	var ids []uint64
	q := NewQueue(s, "q", 1e9, 1_000_000, 0, ReceiverFunc(func(p *Packet) {
		times = append(times, s.Now())
		ids = append(ids, p.ID)
	}))
	for i := 0; i < 3; i++ {
		q.Enqueue(&Packet{ID: uint64(i), Size: 1000})
	}
	s.Run(1_000_000)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("order = %v", ids)
	}
	for i, want := range []int64{1000, 2000, 3000} {
		if times[i] != want {
			t.Errorf("packet %d delivered at %d, want %d", i, times[i], want)
		}
	}
}

func TestQueueDropOnOverflow(t *testing.T) {
	s := NewSim()
	dst := &sink{}
	q := NewQueue(s, "q", 1e9, 2500, 0, dst)
	for i := 0; i < 4; i++ {
		q.Enqueue(&Packet{ID: uint64(i), Size: 1000})
	}
	s.Run(1_000_000)
	// Buffer holds 2 packets plus the in-flight... occupancy: first
	// packet starts transmitting but still occupies until done. At
	// enqueue time of #2 occupancy=2000 -> fits (2500)? No: 2000+1000
	// > 2500, dropped. Expect 2 delivered, 2 dropped.
	if q.Stats.DroppedPkts != 2 {
		t.Errorf("drops = %d, want 2", q.Stats.DroppedPkts)
	}
	if len(dst.got) != 2 {
		t.Errorf("delivered = %d, want 2", len(dst.got))
	}
	if q.Occupied() != 0 {
		t.Errorf("occupied = %d after drain", q.Occupied())
	}
}

func TestQueueStrictPriority(t *testing.T) {
	s := NewSim()
	var ids []uint64
	q := NewQueue(s, "q", 1e9, 1_000_000, 0, ReceiverFunc(func(p *Packet) { ids = append(ids, p.ID) }))
	// Packet 0 (low prio) starts transmitting; then a burst of low and
	// high arrives. High must jump ahead of queued low.
	q.Enqueue(&Packet{ID: 0, Size: 1000, Prio: PrioBestEffort})
	q.Enqueue(&Packet{ID: 1, Size: 1000, Prio: PrioBestEffort})
	q.Enqueue(&Packet{ID: 2, Size: 1000, Prio: PrioGuaranteed})
	s.Run(1_000_000)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 1 {
		t.Errorf("priority order = %v, want [0 2 1]", ids)
	}
}

func TestQueueECNMarking(t *testing.T) {
	s := NewSim()
	dst := &sink{}
	q := NewQueue(s, "q", 1e9, 1_000_000, 0, dst)
	q.ECNThresholdBytes = 1500
	q.Enqueue(&Packet{ID: 0, Size: 1000, ECNCapable: true})
	q.Enqueue(&Packet{ID: 1, Size: 1000, ECNCapable: true}) // occupancy 1000 < K: no mark
	q.Enqueue(&Packet{ID: 2, Size: 1000, ECNCapable: true}) // occupancy 2000 >= K: mark
	q.Enqueue(&Packet{ID: 3, Size: 1000})                   // not ECN-capable: never marked
	s.Run(1_000_000)
	if dst.got[0].CE || dst.got[1].CE {
		t.Error("early packets should not be marked")
	}
	if !dst.got[2].CE {
		t.Error("packet over threshold not marked")
	}
	if dst.got[3].CE {
		t.Error("non-ECT packet marked")
	}
	if q.Stats.ECNMarked != 1 {
		t.Errorf("ECNMarked = %d, want 1", q.Stats.ECNMarked)
	}
}

func TestPhantomQueueMarks(t *testing.T) {
	pq := NewPhantomQueue(0.95e9, 3000)
	// Fill the phantom at t=0.
	marked := false
	for i := 0; i < 5; i++ {
		if pq.Mark(0, 1000) {
			marked = true
		}
	}
	if !marked {
		t.Error("phantom never marked under burst")
	}
	// After drain it stops marking.
	if pq.Mark(1_000_000, 100) { // 1 ms drains 0.95e6... wait, 0.95e9 B/s * 1ms = 950000 bytes >> backlog
		t.Error("phantom still marking after drain")
	}
	if pq.Backlog(1_000_000) != 100 {
		t.Errorf("backlog = %v, want 100", pq.Backlog(1_000_000))
	}
	if pq.Backlog(2_000_000) != 0 {
		t.Errorf("backlog after drain = %v, want 0", pq.Backlog(2_000_000))
	}
}

func TestSwitchDropsVoids(t *testing.T) {
	sw := &Switch{Name: "tor", sim: NewSim(), Route: func(int) *Queue { t.Fatal("void routed"); return nil }}
	sw.Receive(&Packet{Void: true, Size: 84})
	if sw.Stats.VoidDropped != 1 {
		t.Errorf("VoidDropped = %d", sw.Stats.VoidDropped)
	}
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(*Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }

// trainGen drives one host with a tie-free packet train: start offsets
// 14·h+1 are odd while every delay component (1400 ns gap, 1200 ns
// serialization, 200 ns propagation) is even and 14·Δh ≢ 0 mod 200 for
// any Δh < 100, so no two hosts' packets ever share an event time.
type trainGen struct {
	host      *Host
	dst       int
	seq       uint64
	remaining int
	fn        func()
}

func (g *trainGen) send() {
	sim := g.host.Sim()
	p := sim.AllocPacket()
	g.seq++
	p.ID = uint64(g.host.ID+1)<<32 | g.seq
	p.Src, p.Dst = g.host.ID, g.dst
	p.SrcVM, p.DstVM = g.host.ID, g.dst
	p.Size = 1500
	g.host.Send(p)
	g.remaining--
	if g.remaining > 0 {
		sim.After(1400, g.fn)
	}
}

// runCrossPodWorkload runs the permutation blast (host h → h+3 mod N,
// crossing racks and pods) to completion, recycling every delivered
// packet.
func runCrossPodWorkload(t *testing.T, pkts int) *Network {
	t.Helper()
	nw := Build(NewSim(), testTree(t), Options{PropNs: 200})
	hosts := len(nw.Hosts)
	for h, host := range nw.Hosts {
		host.FreeOnDeliver = true
		g := &trainGen{host: host, dst: (h + 3) % hosts, remaining: pkts}
		g.fn = g.send
		nw.Sim.At(int64(14*h+1), g.fn)
	}
	nw.Run(int64(14*hosts) + int64(pkts)*1400 + 1_000_000)
	return nw
}

// TestSimCountersSequential checks the always-on engine counters on the
// single-threaded engine: events flow, the wheel and arenas see
// pressure, the freelists get hits once warm, and the arena drains.
func TestSimCountersSequential(t *testing.T) {
	nw := runCrossPodWorkload(t, 100)
	rtc := nw.Sim.RuntimeCounters()
	if rtc.Events == 0 {
		t.Fatal("no events counted")
	}
	if rtc.WheelHWM == 0 {
		t.Error("wheel high-water mark never moved")
	}
	if rtc.EvMisses == 0 || rtc.EvHits == 0 {
		t.Errorf("event freelist never both carved and reused: hits=%d misses=%d",
			rtc.EvHits, rtc.EvMisses)
	}
	if rtc.PktMisses == 0 || rtc.PktHits == 0 {
		t.Errorf("packet arena never both carved and reused: hits=%d misses=%d",
			rtc.PktHits, rtc.PktMisses)
	}
	if rtc.PktHWM == 0 {
		t.Error("packet high-water mark never moved")
	}
	if rtc.PktInUse != 0 {
		t.Errorf("%d packets still in the arena after drain", rtc.PktInUse)
	}
}

// TestRuntimeStatsSequential checks the engine self-telemetry report:
// it carries the raw counters unchanged, and its hit rates sit strictly
// inside (0,1) after a warm run and at 1 on an idle Sim.
func TestRuntimeStatsSequential(t *testing.T) {
	nw := runCrossPodWorkload(t, 50)
	e := nw.Sim.RuntimeStats().Engine
	if e.Events == 0 || e.PktHWM == 0 {
		t.Fatalf("engine counters empty: %+v", e)
	}
	if rtc := nw.Sim.RuntimeCounters(); e.SimCounters != rtc {
		t.Errorf("RuntimeStats counters %+v, want %+v", e.SimCounters, rtc)
	}
	if e.EvHitRate <= 0 || e.EvHitRate >= 1 || e.PktHitRate <= 0 || e.PktHitRate >= 1 {
		t.Errorf("hit rates out of (0,1): %+v", e)
	}
	idle := NewSim().RuntimeStats().Engine
	if idle.EvHitRate != 1 || idle.PktHitRate != 1 {
		t.Errorf("idle Sim hit rates %v/%v, want 1/1", idle.EvHitRate, idle.PktHitRate)
	}
}

func TestPacketArenaReuse(t *testing.T) {
	s := NewSim()
	p1 := s.AllocPacket()
	p1.ID = 7
	p1.Size = 1500
	p1.Payload = "retained"
	s.FreePacket(p1)
	p2 := s.AllocPacket()
	if p2 != p1 {
		t.Fatal("arena did not recycle the freed packet")
	}
	if p2.ID != 0 || p2.Size != 0 || p2.Payload != nil {
		t.Fatalf("recycled packet not zeroed: %+v", p2)
	}
	p3 := s.AllocPacket()
	if p3 == p2 {
		t.Fatal("arena handed out the same packet twice")
	}
}

// TestEveryNoAllocPerTick is the regression gate for Sim.Every's
// rescheduling path: steady-state ticks must not allocate (the ticker
// and its closure are created once, event nodes come from the
// freelist).
func TestEveryNoAllocPerTick(t *testing.T) {
	s := NewSim()
	ticks := 0
	s.Every(10, 1<<40, func(int64) { ticks++ })
	next := s.Now()
	run := func() {
		next += 10_000 // 1000 ticks per invocation
		s.Run(next)
	}
	run() // warm: ticker allocation, event chunk, heap growth
	avg := testing.AllocsPerRun(5, run)
	if avg >= 1 {
		t.Fatalf("Every allocates in steady state: %.1f allocs per 1000 ticks", avg)
	}
	if ticks < 6000 {
		t.Fatalf("ticks = %d, want >= 6000", ticks)
	}
}

// BenchmarkSimEventLoop isolates the raw event-engine cost: one op is
// one closure event pushed through the heap and executed, with batches
// of 1024 keeping a realistic heap depth. The freelist keeps this at
// zero allocations per op in steady state.
func BenchmarkSimEventLoop(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		s.At(now+int64(i&1023), fn)
		if i&1023 == 1023 {
			now += 1024
			s.Run(now)
		}
	}
	s.Run(now + 1024)
}
