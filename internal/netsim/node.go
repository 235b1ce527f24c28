package netsim

import (
	"repro/internal/pacer"
)

// Switch is a store-and-forward switch. It drops void frames (it is
// always the first switch a void reaches, since voids are synthesized
// at host NICs) and forwards everything else via its routing function.
type Switch struct {
	Name string
	// Route returns the output queue toward a destination host.
	Route func(dstHost int) *Queue
	// Stats counts void drops at this switch.
	Stats Counters

	// sim is the event loop the switch executes on; every packet the
	// switch absorbs or loses is recycled into its packet arena.
	sim  *Sim
	down bool
}

// Receive implements Receiver.
func (sw *Switch) Receive(p *Packet) {
	if sw.down {
		// A dead switch loses everything in transit through it, voids
		// included; the loss is metered, not silent.
		sw.Stats.FaultDroppedPkts++
		sw.Stats.FaultDroppedBytes += int64(p.Size)
		sw.sim.FreePacket(p)
		return
	}
	if p.Void {
		sw.Stats.VoidDropped++
		sw.sim.FreePacket(p)
		return
	}
	q := sw.Route(p.Dst)
	if q == nil {
		sw.sim.FreePacket(p) // destination unreachable; drop silently
		return
	}
	q.Enqueue(p)
}

// Fail marks the switch dead: transit packets are fault-dropped. The
// fault injector pairs this with failing the switch's attached ports
// so buffered and in-flight traffic is lost too.
func (sw *Switch) Fail() { sw.down = true }

// Restore brings the switch back.
func (sw *Switch) Restore() { sw.down = false }

// Host is a server endpoint. Egress goes either directly to the NIC
// queue (baseline transports) or through a Silo host pacer that
// timestamps packets and emits void-padded batches.
type Host struct {
	ID  int
	sim *Sim
	// NIC is the egress port toward the ToR.
	NIC *Queue
	// Deliver is the upcall for packets addressed to this host.
	Deliver func(p *Packet)
	// OnDeliver, if set, is called with every delivered data packet and
	// its NIC-to-NIC delay (now minus SentAt, the wire stamp), just
	// before Deliver. It is an application callback, not an observation
	// point: planes subscribe to the Sim's EvDeliver instead.
	OnDeliver func(p *Packet, delayNs int64)
	// FreeOnDeliver recycles every delivered data packet into the
	// engine's arena after OnDeliver/Deliver return. It is for hosts
	// whose Deliver retains nothing and frees nothing (benchmarks,
	// generator workloads). A host behind a transport.Fabric leaves it
	// off: the Fabric frees what it is delivered.
	FreeOnDeliver bool

	// FaultDropped counts packets this host lost to its own failure
	// (arrivals while down, sends attempted while down).
	FaultDropped int64

	// Pacing state (nil for unpaced hosts).
	down        bool
	pacer       *pacer.HostPacer
	vms         map[int]*pacer.VM
	loopRunning bool
	// parkedAt is the future wake time when the loop sleeps on a
	// future release stamp (0 while actively batching); loopGen
	// invalidates stale wake events when an earlier-release packet
	// re-arms the loop.
	parkedAt    int64
	loopGen     uint64
	batchLoopFn func() // == batchLoop, bound once

	// wire is the laid-out batch: frames from wireHead on wait for their
	// wire time, in (time, seq) order. While it holds any, one
	// evtHostWire node is queued at the head frame's key.
	wire     []wireFrame
	wireHead int
}

// wireFrame is one batch frame waiting for the wire: its wire time, the
// engine seq reserved for it when the batch was laid out, and what the
// pacer's frame carries. A data frame's packet gets its release stamp
// and gate when it fires; a void (p == nil) becomes an arena packet of
// bytes then.
type wireFrame struct {
	t       int64
	seq     uint64
	p       *Packet
	release int64
	bytes   int32
	gate    uint8
}

// NewHost returns a host bound to sim; NIC must be attached before
// sending.
func NewHost(sim *Sim, id int) *Host {
	h := &Host{ID: id, sim: sim, vms: make(map[int]*pacer.VM)}
	h.batchLoopFn = h.batchLoop
	return h
}

// Sim returns the event loop that owns the host.
func (h *Host) Sim() *Sim { return h.sim }

// Receive implements Receiver (ingress from the ToR).
func (h *Host) Receive(p *Packet) {
	if h.down {
		h.FaultDropped++
		h.sim.FreePacket(p)
		return
	}
	if p.Void {
		// Voids should have been dropped upstream; tolerate anyway.
		h.sim.FreePacket(p)
		return
	}
	delayNs := h.sim.Now() - p.SentAt
	h.sim.emit(Event{Kind: EvDeliver, At: int32(h.ID), P: p, Arg: delayNs})
	if h.OnDeliver != nil {
		h.OnDeliver(p, delayNs)
	}
	if h.Deliver != nil {
		h.Deliver(p)
	}
	if h.FreeOnDeliver {
		h.sim.FreePacket(p)
	}
}

// Send transmits a packet directly through the NIC (no pacing).
func (h *Host) Send(p *Packet) {
	if h.down {
		h.FaultDropped++
		h.sim.FreePacket(p)
		return
	}
	p.SentAt = h.sim.Now()
	h.NIC.Enqueue(p)
}

// Fail takes the host down: its NIC port fails (draining-and-dropping
// queued egress), resident VMs stop emitting (SendPaced/Send drop),
// and ingress is fault-dropped. The pacer's batch loop may still fire
// scheduled wire events; they die at the failed NIC.
func (h *Host) Fail() {
	h.down = true
	if h.NIC != nil {
		h.NIC.Fail()
	}
}

// Restore brings the host (and its NIC) back into service.
func (h *Host) Restore() {
	h.down = false
	if h.NIC != nil {
		h.NIC.Restore()
	}
}

// EnablePacing installs a Silo host pacer on the NIC.
func (h *Host) EnablePacing(batcher *pacer.Batcher) {
	h.pacer = pacer.NewHostPacer(batcher)
}

// Paced reports whether the host has a pacer installed.
func (h *Host) Paced() bool { return h.pacer != nil }

// AddVM registers a paced VM (its guarantees configured by the
// caller) on this host.
func (h *Host) AddVM(vm *pacer.VM) {
	h.pacer.AddVM(vm)
	h.vms[vm.ID] = vm
}

// VM returns the pacer state for a VM id.
func (h *Host) VM(id int) (*pacer.VM, bool) {
	vm, ok := h.vms[id]
	return vm, ok
}

// SendPaced submits a packet to the VM's token-bucket chain; the
// batch loop lays it on the wire at its release stamp.
func (h *Host) SendPaced(vmID int, p *Packet) {
	if h.down {
		h.FaultDropped++
		h.sim.FreePacket(p)
		return
	}
	vm, ok := h.vms[vmID]
	if !ok || h.pacer == nil {
		h.Send(p)
		return
	}
	h.sim.emit(Event{Kind: EvPacedEnqueue, At: int32(h.ID), P: p})
	vm.Enqueue(h.sim.Now(), p.DstVM, int(p.Size), p)
	switch {
	case !h.loopRunning:
		h.loopRunning = true
		h.armLoop(h.sim.Now())
	case h.parkedAt > 0:
		// The loop sleeps until a future stamp. If this packet is due
		// earlier, re-arm, invalidating the stale wake: missing this
		// would batch the interim backlog as one line-rate train and
		// destroy pacing. (An actively batching loop picks the packet
		// up by itself, so only this branch asks when it is due.)
		if due, _ := vm.NextEventTime(); due < h.parkedAt {
			h.armLoop(due)
		}
	}
}

// armLoop schedules the batch loop at time t under a fresh generation.
func (h *Host) armLoop(t int64) {
	h.loopGen++
	h.parkedAt = t
	if now := h.sim.Now(); t < now {
		h.parkedAt = now
	}
	h.sim.schedule(t, evtHostLoop, h.loopGen, nil, nil, h, nil)
}

// layWire appends frame f to the laid-out batch at its wire time f.t
// under a freshly reserved engine seq — the key a per-frame event
// scheduled now would get — and queues the host's wire node if the batch
// was empty. The pacer never lays a frame before now and lays batches
// end to end (a batch starts no earlier than the previous one ended), so
// appending keeps the batch in key order.
func (h *Host) layWire(f wireFrame) {
	s := h.sim
	f.seq = s.seq
	s.seq++
	h.wire = append(h.wire, f)
	if len(h.wire) == 1 {
		ev := s.alloc()
		ev.kind = evtHostWire
		ev.h = h
		ev.seq = f.seq
		s.insertKeyed(f.t, ev)
	}
}

// fireWire runs when the wire node reaches the head frame's key: it
// re-queues the node at the next frame's reserved key (or frees it when
// the batch is done) and lays the head frame on the wire. Every frame
// thus executes at exactly the (time, seq) a per-frame event would have.
func (h *Host) fireWire(ev *event) {
	f := h.wire[h.wireHead]
	h.wire[h.wireHead].p = nil
	h.wireHead++
	if h.wireHead < len(h.wire) {
		next := &h.wire[h.wireHead]
		ev.seq = next.seq
		h.sim.insertKeyed(next.t, ev)
	} else {
		h.wire, h.wireHead = h.wire[:0], 0
		h.sim.release(ev)
	}
	h.wirePacket(f)
	// Two frames of lead: a packet is in cache by the time its own frame
	// fires (batchLoop covers a batch's first two).
	if i := h.wireHead + 1; i < len(h.wire) && h.wire[i].p != nil {
		prefetchPacket(h.wire[i].p)
	}
}

// wirePacket lays one batch frame on the NIC at its wire time. A void is
// told by its frame (f.p == nil): a data packet's first touch is a store.
func (h *Host) wirePacket(f wireFrame) {
	p := f.p
	if p == nil {
		p = h.sim.AllocPacket()
		p.Src, p.Dst, p.Size, p.Void = h.ID, -1, f.bytes, true
	} else {
		p.PacedRelease, p.Gate = f.release, f.gate
	}
	p.SentAt = h.sim.Now()
	if f.p != nil {
		h.sim.emit(Event{Kind: EvPacedWire, At: int32(h.ID), P: p})
	}
	h.NIC.Enqueue(p)
}

// batchLoop emulates the paper's soft-timer scheduling: build a batch,
// inject its frames at their wire times, and re-arm at batch end (the
// DMA-completion interrupt). When the pacer runs dry the loop parks
// until the next SendPaced.
func (h *Host) batchLoop() {
	h.parkedAt = 0
	batch := h.pacer.NextBatch(h.sim.Now())
	if batch == nil {
		// Nothing eligible now. If packets exist with future stamps,
		// re-arm at the earliest one; else park.
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
	// The next NextBatch rebuilds the batch in place: copy what the
	// wire needs.
	for i := range batch.Packets {
		fp := &batch.Packets[i]
		np, _ := fp.Ref.(*Packet) // nil for a void
		h.layWire(wireFrame{t: fp.Wire, p: np, release: fp.Release, bytes: int32(fp.Bytes), gate: fp.Gate})
		if i < 2 && np != nil {
			prefetchPacket(np)
		}
	}
	h.sim.At(batch.End, h.batchLoopFn)
}
