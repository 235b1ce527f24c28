package pacer

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference the scheduler is checked against: the map-and-heap
// implementation VM, Batcher.Build and HostPacer.NextBatch had before
// the per-destination records, the ready FIFO and frame recycling. It
// shares TokenBucket and the void layout (Batcher.pad) with the code
// under test and nothing else; it never recycles a frame.

type oracleVM struct {
	id  int
	g   Guarantee
	cap *TokenBucket
	avg *TokenBucket
	dst map[int]*TokenBucket

	queues map[int][]*Packet
	queued int
	ready  packetHeap
	seq    uint64

	queuedBytes map[int]int64
	sentBytes   map[int]int64

	// overtakes counts commits that sort ahead of a packet already in
	// ready: the case a tail-append FIFO alone would get wrong. top is
	// the latest packet in ready (pops take the earliest, so the latest
	// pushed since ready was last empty is still there).
	overtakes int
	top       *Packet
}

// commit adds a newly committed packet to ready.
func (v *oracleVM) commit(p *Packet) {
	switch {
	case v.ready.Len() == 0 || v.top.Release < p.Release || (v.top.Release == p.Release && v.top.seq < p.seq):
		v.top = p
	default:
		v.overtakes++
	}
	heap.Push(&v.ready, p)
}

// unpop hands back the packet popReady just returned.
func (v *oracleVM) unpop(p *Packet) {
	if v.ready.Len() == 0 {
		v.top = p
	}
	heap.Push(&v.ready, p)
}

func newOracleVM(id int, g Guarantee, start int64) *oracleVM {
	if g.MTUBytes <= 0 {
		g.MTUBytes = 1500
	}
	burst := g.BurstBytes
	if burst < g.MTUBytes {
		burst = g.MTUBytes
	}
	return &oracleVM{
		id:          id,
		g:           g,
		cap:         NewTokenBucket(g.BurstRateBps, g.MTUBytes, start),
		avg:         NewTokenBucket(g.BandwidthBps, burst, start),
		dst:         make(map[int]*TokenBucket),
		queues:      make(map[int][]*Packet),
		queuedBytes: make(map[int]int64),
		sentBytes:   make(map[int]int64),
	}
}

func (v *oracleVM) destinations() []int {
	out := make([]int, 0, len(v.sentBytes))
	for d := range v.sentBytes {
		out = append(out, d)
	}
	for d := range v.queuedBytes {
		if _, seen := v.sentBytes[d]; !seen {
			out = append(out, d)
		}
	}
	return out
}

func (v *oracleVM) setDestRate(now int64, dst int, rate float64) {
	if rate <= 0 {
		delete(v.dst, dst)
		return
	}
	if b, ok := v.dst[dst]; ok {
		b.SetRate(now, rate)
		return
	}
	burst := v.g.BurstBytes
	if burst < v.g.MTUBytes {
		burst = v.g.MTUBytes
	}
	v.dst[dst] = NewTokenBucket(rate, burst, now)
}

func (v *oracleVM) destRate(dst int) float64 {
	if b, ok := v.dst[dst]; ok {
		return b.Rate()
	}
	return 0
}

func (v *oracleVM) enqueue(now int64, dstVM, bytes int, ref interface{}) {
	p := &Packet{Bytes: bytes, SrcVM: v.id, DstVM: dstVM, Release: -1, Ref: ref, enq: now, seq: v.seq}
	v.seq++
	v.queues[dstVM] = append(v.queues[dstVM], p)
	v.queued++
	v.queuedBytes[dstVM] += int64(bytes)
}

func (v *oracleVM) feasible(p *Packet) (int64, uint8) {
	r := p.enq
	gate := GateNone
	n := p.Bytes
	if b, ok := v.dst[p.DstVM]; ok {
		if f := b.Free(r, n); f > r {
			r = f
			gate = GateDest
		}
	}
	if f := v.avg.Free(r, n); f > r {
		r = f
		gate = GateAvg
	}
	if f := v.cap.Free(r, n); f > r {
		r = f
		gate = GateCap
	}
	return r, gate
}

func (v *oracleVM) schedule(upTo int64) {
	for v.queued > 0 {
		bestR := int64(math.MaxInt64)
		bestDst := 0
		var bestSeq uint64
		var bestGate uint8
		found := false
		for d, q := range v.queues {
			if len(q) == 0 {
				continue
			}
			r, gate := v.feasible(q[0])
			if !found || r < bestR || (r == bestR && q[0].seq < bestSeq) {
				found = true
				bestR = r
				bestDst = d
				bestSeq = q[0].seq
				bestGate = gate
			}
		}
		if !found || bestR > upTo {
			break
		}
		q := v.queues[bestDst]
		p := q[0]
		v.queues[bestDst] = q[1:]
		v.queued--
		v.queuedBytes[bestDst] -= int64(p.Bytes)
		v.sentBytes[bestDst] += int64(p.Bytes)
		if b, ok := v.dst[p.DstVM]; ok {
			b.Commit(bestR, p.Bytes)
		}
		v.avg.Commit(bestR, p.Bytes)
		v.cap.Commit(bestR, p.Bytes)
		p.Release = bestR
		p.Gate = bestGate
		v.commit(p)
	}
}

func (v *oracleVM) pending() int { return v.queued + v.ready.Len() }

func (v *oracleVM) nextEventTime() (int64, bool) {
	best := int64(math.MaxInt64)
	ok := false
	if v.ready.Len() > 0 {
		best = v.ready[0].Release
		ok = true
	}
	for _, q := range v.queues {
		if len(q) == 0 {
			continue
		}
		if r, _ := v.feasible(q[0]); r < best {
			best = r
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

func (v *oracleVM) peekRelease() (int64, bool) {
	if v.ready.Len() == 0 {
		return 0, false
	}
	return v.ready[0].Release, true
}

func (v *oracleVM) popReady(horizon int64) (*Packet, bool) {
	if v.ready.Len() == 0 || v.ready[0].Release > horizon {
		return nil, false
	}
	return heap.Pop(&v.ready).(*Packet), true
}

type packetHeap []*Packet

func (h packetHeap) Len() int { return len(h) }
func (h packetHeap) Less(i, j int) bool {
	if h[i].Release != h[j].Release {
		return h[i].Release < h[j].Release
	}
	return h[i].seq < h[j].seq
}
func (h packetHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *packetHeap) Push(x interface{}) { *h = append(*h, x.(*Packet)) }
func (h *packetHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// oracleHost is the previous HostPacer: a fresh batch per call.
type oracleHost struct {
	b         *Batcher
	vms       []*oracleVM
	lastEnd   int64
	pushBacks int // times padding consumed the window and a packet went back
}

func (h *oracleHost) build(start int64) *Batch {
	b := h.b
	end := start + b.BatchNs
	batch := &Batch{Start: start}
	cursor := start
	for _, vm := range h.vms {
		vm.schedule(end)
	}
	for cursor < end {
		var src *oracleVM
		var best int64 = math.MaxInt64
		for _, vm := range h.vms {
			if r, ok := vm.peekRelease(); ok && r < best {
				best = r
				src = vm
			}
		}
		if src == nil || best >= end {
			break
		}
		p, _ := src.popReady(end)
		if p.Release > cursor {
			gap := b.gapBytes(p.Release - cursor)
			if gap > b.gapBytes(end-cursor) {
				gap = b.gapBytes(end - cursor)
			}
			cursor = b.pad(batch, nil, cursor, gap)
		}
		if cursor >= end {
			src.unpop(p)
			h.pushBacks++
			break
		}
		p.Wire = cursor
		batch.Packets = append(batch.Packets, p)
		batch.DataBytes += p.Bytes
		cursor += b.wireNs(p.Bytes)
	}
	batch.End = cursor
	return batch
}

func (h *oracleHost) nextBatch(now int64) *Batch {
	start := now
	if h.lastEnd > start {
		start = h.lastEnd
	}
	earliest := int64(math.MaxInt64)
	for _, vm := range h.vms {
		if r, ok := vm.nextEventTime(); ok && r < earliest {
			earliest = r
		}
	}
	if earliest == math.MaxInt64 || earliest >= start+h.b.BatchNs {
		return nil
	}
	if earliest > start && h.lastEnd < now {
		start = earliest
	}
	batch := h.build(start)
	if len(batch.Packets) == 0 {
		return nil
	}
	h.lastEnd = batch.End
	return batch
}

// sameFrame compares everything a consumer can read off a frame.
func sameFrame(a, b *Packet) bool {
	return a.Void == b.Void && a.Bytes == b.Bytes && a.Wire == b.Wire &&
		(a.Void || (a.seq == b.seq && a.Release == b.Release && a.Gate == b.Gate &&
			a.SrcVM == b.SrcVM && a.DstVM == b.DstVM && a.enq == b.enq && a.Ref == b.Ref))
}

// checkBatch fails the test unless the pacer's batch is the oracle's.
func checkBatch(t *testing.T, where string, got, want *Batch) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: NextBatch nil=%v, oracle nil=%v", where, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Start != want.Start || got.End != want.End || got.DataBytes != want.DataBytes ||
		got.VoidBytes != want.VoidBytes || len(got.Packets) != len(want.Packets) {
		t.Fatalf("%s: batch %+v, oracle %+v", where, *got, *want)
	}
	for k := range got.Packets {
		if !sameFrame(got.Packets[k], want.Packets[k]) {
			t.Fatalf("%s: frame %d is %+v, oracle %+v", where, k, *got.Packets[k], *want.Packets[k])
		}
	}
}

// TestSchedulerMatchesOracle drives the scheduler and the oracle with
// the same seeded interleaving of every operation the data path and
// the hose coordinator perform, and requires the same observable state
// after every step: pop order with (seq, Release, Gate), batch layout,
// NextEventTime, PeekRelease, Pending and the coordinator's per-
// destination view. Guarantees without an average or a cap rate are in
// the mix because there commits are not monotone in release time, so a
// packet can commit ahead of ones already in the ready queue.
func TestSchedulerMatchesOracle(t *testing.T) {
	const (
		seeds = 90
		steps = 500
		mtu   = 1538
		ack   = 84
	)
	guarantees := []Guarantee{
		{BandwidthBps: 1e9 / 8, BurstBytes: 15e3, BurstRateBps: 10e9 / 8, MTUBytes: mtu},
		{BandwidthBps: 4e9 / 8, BurstBytes: 3000, BurstRateBps: 0, MTUBytes: mtu},
		{BandwidthBps: 0, BurstBytes: 15e3, BurstRateBps: 2e9 / 8, MTUBytes: mtu},
		{BandwidthBps: -1, BurstBytes: 0, BurstRateBps: -1, MTUBytes: mtu},
		{BandwidthBps: 9e8, BurstBytes: mtu, BurstRateBps: 0, MTUBytes: mtu},
	}
	pushBacks, overtakes := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batcher := NewBatcher(10e9 / 8)
		batcher.BatchNs = []int64{50_000, 5_000, 1_000}[seed%3]
		host := NewHostPacer(batcher)
		ref := &oracleHost{b: batcher}
		nDst := 1 + rng.Intn(12)
		// Ack-heavy runs put several releases in every short window.
		ackPct := []int{30, 90}[seed/3%2]
		// Short ticks keep the chain backlogged between batches.
		tick := []int64{40_000, 1_500}[seed/30%2]
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			g := guarantees[(int(seed)/6+i)%len(guarantees)]
			host.AddVM(NewVM(i+1, g, 0))
			ref.vms = append(ref.vms, newOracleVM(i+1, g, 0))
		}

		var now, lastUpTo int64
		tokens := 0
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(ref.vms))
			vm, ovm := host.vms[i], ref.vms[i]
			switch op := rng.Intn(100); {
			case op < 45:
				// One frame, or a burst that leaves the chain backlogged.
				for burst := 1 + rng.Intn(8)/7*rng.Intn(150); burst > 0; burst-- {
					dst, bytes := 1+rng.Intn(nDst), mtu
					if rng.Intn(100) < ackPct {
						bytes = ack
					}
					tokens++
					vm.Enqueue(now, dst, bytes, tokens)
					ovm.enqueue(now, dst, bytes, tokens)
				}
			case op < 57:
				// Install, retune under backlog, remove; nDst+1 is a
				// destination no traffic ever goes to.
				dst, rate := 1+rng.Intn(nDst+1), 0.0
				if rng.Intn(4) > 0 {
					rate = 1e6 + rng.Float64()*10e9/8
				}
				vm.SetDestRate(now, dst, rate)
				ovm.setDestRate(now, dst, rate)
			case op < 72:
				// One batch, or the soft-timer chain: each batch built as
				// the previous one finishes, voids filling the gaps.
				for chain := 1 + rng.Intn(2)*rng.Intn(64); chain > 0; chain-- {
					got, want := host.NextBatch(now), ref.nextBatch(now)
					checkBatch(t, fmt.Sprintf("seed %d step %d", seed, step), got, want)
					if got == nil {
						break
					}
					now = got.End
				}
			case op < 82:
				// Rising horizons, and the same one again.
				if rng.Intn(3) > 0 {
					lastUpTo = now + rng.Int63n(200_000)
				}
				vm.Schedule(lastUpTo)
				ovm.schedule(lastUpTo)
			case op < 94:
				horizon := now + rng.Int63n(100_000)
				got, ok := vm.PopReady(horizon)
				want, wok := ovm.popReady(horizon)
				if ok != wok || (ok && !sameFrame(got, want)) {
					t.Fatalf("seed %d step %d: PopReady(%d) = %+v %v, oracle %+v %v", seed, step, horizon, got, ok, want, wok)
				}
				if ok && rng.Intn(2) == 0 {
					// What Build does when padding consumes the window.
					vm.unpop(got)
					ovm.unpop(want)
				}
			default:
				now += rng.Int63n(tick)
			}

			for k, ovm := range ref.vms {
				vm := host.vms[k]
				r, ok := vm.NextEventTime()
				wr, wok := ovm.nextEventTime()
				pr, pok := vm.PeekRelease()
				wpr, wpok := ovm.peekRelease()
				if r != wr || ok != wok || pr != wpr || pok != wpok || vm.Pending() != ovm.pending() {
					t.Fatalf("seed %d step %d vm %d: NextEventTime %d %v (oracle %d %v), PeekRelease %d %v (oracle %d %v), Pending %d (oracle %d)",
						seed, step, vm.ID, r, ok, wr, wok, pr, pok, wpr, wpok, vm.Pending(), ovm.pending())
				}
				for d := 1; d <= nDst+1; d++ {
					if vm.QueuedBytesTo(d) != ovm.queuedBytes[d] || vm.SentBytesTo(d) != ovm.sentBytes[d] || vm.DestRate(d) != ovm.destRate(d) {
						t.Fatalf("seed %d step %d vm %d dst %d: queued %d sent %d rate %g, oracle %d %d %g", seed, step, vm.ID, d,
							vm.QueuedBytesTo(d), vm.SentBytesTo(d), vm.DestRate(d), ovm.queuedBytes[d], ovm.sentBytes[d], ovm.destRate(d))
					}
				}
				got, want := vm.Destinations(), ovm.destinations()
				sort.Ints(got)
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d vm %d: Destinations %v, oracle %v", seed, step, vm.ID, got, want)
				}
			}
		}
		pushBacks += ref.pushBacks
		for _, ovm := range ref.vms {
			overtakes += ovm.overtakes
		}
	}
	t.Logf("%d push-backs, %d overtaking commits over %d seeds", pushBacks, overtakes, seeds)
	if overtakes == 0 {
		t.Error("no commit ever overtook a waiting packet: the ready queue's insertion step went untested")
	}
}

// TestPushBackMatchesOracle aims at the one path the random script
// reaches only by luck: padding that consumes the window, so Build puts
// the packet it just popped back. Acks paced 93–120 ns apart leave gaps
// of 26–53 ns after their 67 ns of wire time, which the void layout
// rounds to nothing or to a whole 67 ns slot — past the window's end
// whenever that falls inside one. Fresh acks keep arriving, so a frame
// recycled while still in ready would be overwritten under the queue.
func TestPushBackMatchesOracle(t *testing.T) {
	pushBacks := 0
	for _, rate := range []float64{7e8, 8e8, 9e8} {
		for _, batchNs := range []int64{1_000, 5_000} {
			batcher := NewBatcher(10e9 / 8)
			batcher.BatchNs = batchNs
			g := Guarantee{BandwidthBps: rate, BurstBytes: 1538, MTUBytes: 1538}
			host, ref := NewHostPacer(batcher), &oracleHost{b: batcher}
			host.AddVM(NewVM(1, g, 0))
			ref.vms = []*oracleVM{newOracleVM(1, g, 0)}
			var now int64
			for round := 0; round < 200; round++ {
				for k := 0; k < 12; k++ {
					host.vms[0].Enqueue(now, 1+k%3, 84, round)
					ref.vms[0].enqueue(now, 1+k%3, 84, round)
				}
				for chain := 0; chain < 8; chain++ {
					got, want := host.NextBatch(now), ref.nextBatch(now)
					checkBatch(t, fmt.Sprintf("rate %g batch %d ns round %d", rate, batchNs, round), got, want)
					if got == nil {
						break
					}
					now = got.End
				}
			}
			pushBacks += ref.pushBacks
		}
	}
	t.Logf("%d push-backs", pushBacks)
	if pushBacks < 100 {
		t.Errorf("only %d batches pushed a packet back: the path this test exists for went (nearly) untested", pushBacks)
	}
}

// TestDestinationsFirstSeenOrder pins the order the hose coordinator
// enumerates flows in, and what SetDestRate may and may not touch.
func TestDestinationsFirstSeenOrder(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e9, BurstBytes: 3000, MTUBytes: 1500}, 0)
	vm.SetDestRate(0, 42, 0) // unknown destination, no rate: nothing happens
	vm.SetDestRate(0, 9, 5e8)
	for _, d := range []int{7, 3, 9, 7, 5} {
		vm.Enqueue(0, d, 1500, nil)
	}
	want := []int{7, 3, 9, 5}
	for run := 0; run < 3; run++ {
		if got := vm.Destinations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Destinations() = %v, want %v", got, want)
		}
		vm.Schedule(0) // committing must not reorder them
	}
	vm.Schedule(1 << 40)
	queued, sent := vm.QueuedBytesTo(9), vm.SentBytesTo(9)
	vm.Enqueue(0, 9, 1500, nil)
	vm.SetDestRate(0, 9, 0)
	if vm.DestRate(9) != 0 {
		t.Error("rate 0 left the bucket installed")
	}
	if vm.QueuedBytesTo(9) != queued+1500 || vm.SentBytesTo(9) != sent || vm.Pending() == 0 {
		t.Errorf("rate 0 touched the queue or the counters: queued %d sent %d pending %d", vm.QueuedBytesTo(9), vm.SentBytesTo(9), vm.Pending())
	}
}
