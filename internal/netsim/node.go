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

	// sim is the event loop the switch executes on; void frames it
	// absorbs are recycled into its packet arena.
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
		return
	}
	if p.Void {
		sw.Stats.VoidDropped++
		if sw.sim != nil {
			sw.sim.FreePacket(p)
		}
		return
	}
	q := sw.Route(p.Dst)
	if q == nil {
		return // destination unreachable; drop silently
	}
	q.Enqueue(p)
}

// Fail marks the switch dead: transit packets are fault-dropped. The
// fault injector pairs this with failing the switch's attached ports
// so buffered and in-flight traffic is lost too.
func (sw *Switch) Fail() { sw.down = true }

// Restore brings the switch back.
func (sw *Switch) Restore() { sw.down = false }

// IsDown reports whether the switch is failed.
func (sw *Switch) IsDown() bool { return sw.down }

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
	// engine's arena after OnDeliver/Deliver return. Enable only when
	// the delivery path retains nothing (benchmarks, generator
	// workloads); transports that keep payload references must leave
	// it off.
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
		return
	}
	if p.Void {
		// Voids should have been dropped upstream; tolerate anyway.
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

// IsDown reports whether the host is failed.
func (h *Host) IsDown() bool { return h.down }

// EnablePacing installs a Silo host pacer on the NIC.
func (h *Host) EnablePacing(batcher *pacer.Batcher) {
	h.pacer = pacer.NewHostPacer(batcher)
}

// Paced reports whether the host has a pacer installed.
func (h *Host) Paced() bool { return h.pacer != nil }

// Pacer returns the host pacer (nil for unpaced hosts). Exposed so
// instrumentation can reach the NIC batcher.
func (h *Host) Pacer() *pacer.HostPacer { return h.pacer }

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
		return
	}
	vm, ok := h.vms[vmID]
	if !ok || h.pacer == nil {
		h.Send(p)
		return
	}
	h.sim.emit(Event{Kind: EvPacedEnqueue, At: int32(h.ID), P: p})
	vm.Enqueue(h.sim.Now(), p.DstVM, p.Size, p)
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

// wirePacket lays one batch frame on the NIC at its wire time.
func (h *Host) wirePacket(p *Packet) {
	p.SentAt = h.sim.Now()
	if !p.Void {
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
	// The batch and its frames are the pacer's, recycled by the next
	// NextBatch: everything needed is copied onto netsim packets here.
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
		h.sim.schedule(fp.Wire, evtHostWire, 0, nil, nil, h, np)
	}
	h.sim.At(batch.End, h.batchLoopFn)
}
