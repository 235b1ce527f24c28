package pacer

import "math"

// Batch is one NIC I/O batch: a back-to-back train of data and void
// frames the NIC transmits at line rate. Void frames occupy wire time
// so that each data frame departs at (approximately) its Release
// stamp (paper Figure 9).
type Batch struct {
	Packets []*Packet
	// Start is the wire time of the first byte; End is the wire time
	// at which the last frame finishes serializing.
	Start, End int64
	// DataBytes and VoidBytes split the batch's wire bytes.
	DataBytes, VoidBytes int
}

// DataPackets counts non-void frames.
func (b *Batch) DataPackets() int {
	n := 0
	for _, p := range b.Packets {
		if !p.Void {
			n++
		}
	}
	return n
}

// Batcher implements Paced IO Batching (paper §4.3.1): it assembles
// fixed-duration batches, inserting void frames to realize the
// inter-packet gaps the token buckets demanded, so pacing precision
// survives NIC batching. One Batcher serves one NIC.
type Batcher struct {
	// LineRateBps is the NIC rate in bytes/sec.
	LineRateBps float64
	// BatchNs is the wire duration of one batch; the paper uses 50 µs.
	BatchNs int64
	// MaxVoidBytes caps individual void frames (an MTU-sized void
	// wastes fewer per-frame cycles than many minimum ones).
	MaxVoidBytes int
	// DisableVoids turns off void insertion (ablation): data packets
	// are sent back-to-back from the top of the batch, as a plain
	// batching NIC would.
	DisableVoids bool
	// Metrics, if set, observes every non-empty batch (batch, byte and
	// frame counters). nil costs one branch per Build.
	Metrics *BatchMetrics
}

// NewBatcher returns a batcher with the paper's defaults for the given
// line rate.
func NewBatcher(lineRateBps float64) *Batcher {
	return &Batcher{
		LineRateBps:  lineRateBps,
		BatchNs:      50_000, // 50 µs
		MaxVoidBytes: 1538,   // MTU frame incl. overhead
	}
}

// wireNs returns the serialization time of n bytes.
func (b *Batcher) wireNs(n int) int64 {
	return int64(math.Round(float64(n) / b.LineRateBps * 1e9))
}

// gapBytes returns the wire bytes spanning a nanosecond gap.
func (b *Batcher) gapBytes(ns int64) int {
	return int(math.Round(float64(ns) / 1e9 * b.LineRateBps))
}

// Build assembles the batch that occupies wire time [start,
// start+BatchNs), drawing data packets from the given VMs in global
// release order. Packets whose release stamp falls beyond the batch
// window remain queued. Void frames are synthesized so each data frame
// departs within one MinVoidBytes slot of its stamp; per the paper,
// voids are only generated while another data packet is waiting, so an
// idle tail generates no filler. The batch and its void frames are the
// caller's to keep.
func (b *Batcher) Build(start int64, vms []*VM) *Batch {
	batch := &Batch{}
	b.build(batch, nil, start, vms)
	return batch
}

// build fills batch (empty on entry) for the window starting at start,
// drawing void frames from frames.
func (b *Batcher) build(batch *Batch, frames *framePool, start int64, vms []*VM) {
	end := start + b.BatchNs
	batch.Start = start
	cursor := start

	// Commit release stamps chronologically up to the batch horizon.
	for _, vm := range vms {
		vm.Schedule(end)
	}

	for cursor < end {
		// Find the globally earliest queued packet.
		var src *VM
		var best int64 = math.MaxInt64
		for _, vm := range vms {
			if r, ok := vm.PeekRelease(); ok && r < best {
				best = r
				src = vm
			}
		}
		if src == nil || best >= end {
			break // nothing (more) eligible for this batch window
		}
		p, _ := src.PopReady(end)

		if !b.DisableVoids && p.Release > cursor {
			gap := b.gapBytes(p.Release - cursor)
			if gap > b.gapBytes(end-cursor) {
				gap = b.gapBytes(end - cursor)
			}
			cursor = b.pad(batch, frames, cursor, gap)
		}
		if cursor >= end {
			// Padding consumed the window; the packet belongs to the
			// next batch.
			src.unpop(p)
			break
		}
		p.Wire = cursor
		batch.Packets = append(batch.Packets, p)
		batch.DataBytes += p.Bytes
		cursor += b.wireNs(p.Bytes)
	}
	batch.End = cursor
	b.Metrics.noteBatch(batch)
}

// pad appends void frames covering gap wire bytes starting at cursor
// and returns the new cursor. The residual below MinVoidBytes is
// rounded to the nearest legal layout: an extra minimum void if the
// residual exceeds half a slot (data late by < 34 ns), nothing
// otherwise (data early by < 34 ns).
func (b *Batcher) pad(batch *Batch, frames *framePool, cursor int64, gap int) int64 {
	for gap >= MinVoidBytes {
		n := gap
		if n > b.MaxVoidBytes {
			n = b.MaxVoidBytes
		}
		// Never leave an illegal residual between MinVoidBytes-1 and 1.
		if rem := gap - n; rem > 0 && rem < MinVoidBytes {
			n = gap - MinVoidBytes
			if n < MinVoidBytes {
				// gap in [MinVoid, 2*MinVoid): emit a single void of
				// the full gap (it is <= 2*MaxVoidBytes in practice).
				n = gap
			}
		}
		cursor = b.void(batch, frames, cursor, n)
		gap -= n
	}
	if gap >= MinVoidBytes/2 {
		cursor = b.void(batch, frames, cursor, MinVoidBytes)
	}
	return cursor
}

// void appends one n-byte void frame at cursor and returns the wire
// time at which it ends.
func (b *Batcher) void(batch *Batch, frames *framePool, cursor int64, n int) int64 {
	v := frames.get()
	*v = Packet{Bytes: n, Void: true, Wire: cursor}
	batch.Packets = append(batch.Packets, v)
	batch.VoidBytes += n
	return cursor + b.wireNs(n)
}

// HostPacer couples a NIC batcher with the VMs it serves and emulates
// the paper's soft-timer scheduling: a new batch is built when the
// previous one finishes transmitting (the DMA-completion interrupt),
// never on a dedicated timer.
type HostPacer struct {
	Batcher *Batcher
	vms     []*VM
	lastEnd int64

	// batch is the one batch NextBatch hands out, rebuilt in place each
	// call; its frames go back to frames, the host's free list, which
	// VM.Enqueue and the batcher's padding draw from.
	batch  Batch
	frames framePool
}

// NewHostPacer returns a pacer for one host NIC.
func NewHostPacer(batcher *Batcher) *HostPacer {
	return &HostPacer{Batcher: batcher}
}

// AddVM registers a VM whose traffic this NIC carries; from here on
// the VM's frames come from the host's free list.
func (h *HostPacer) AddVM(vm *VM) {
	h.vms = append(h.vms, vm)
	vm.frames = &h.frames
}

// VMs returns the registered VMs.
func (h *HostPacer) VMs() []*VM { return h.vms }

// Pending reports queued data packets across all VMs.
func (h *HostPacer) Pending() int {
	n := 0
	for _, vm := range h.vms {
		n += vm.Pending()
	}
	return n
}

// NextBatch builds the next batch at or after now. It returns nil if
// no packet is eligible yet (an idle NIC generates nothing; voids only
// space waiting data). Batches are never built ahead of `now`: a
// packet due later must wait for a wake at its release time, so
// packets arriving in the interim are not locked out of the window
// (the caller re-arms using the earliest NextEventTime).
//
// The batch and every frame in it, data and void, belong to the pacer
// and stay valid only until the next NextBatch call, which recycles
// them; a caller that needs them longer copies what it needs.
func (h *HostPacer) NextBatch(now int64) *Batch {
	for i, p := range h.batch.Packets {
		h.frames.put(p)
		h.batch.Packets[i] = nil
	}
	h.batch = Batch{Packets: h.batch.Packets[:0]}
	start := now
	if h.lastEnd > start {
		start = h.lastEnd
	}
	earliest := int64(math.MaxInt64)
	for _, vm := range h.vms {
		if r, ok := vm.NextEventTime(); ok && r < earliest {
			earliest = r
		}
	}
	if earliest == math.MaxInt64 || earliest >= start+h.Batcher.BatchNs {
		return nil
	}
	// A fresh busy period (the NIC idled since the last batch) starts
	// at the first release: dead air needs no voids. Within a busy
	// period batches chain back-to-back and voids fill every gap —
	// that is what keeps the wire at line rate in Figure 10b.
	if earliest > start && h.lastEnd < now {
		start = earliest
	}
	h.Batcher.build(&h.batch, &h.frames, start, h.vms)
	if len(h.batch.Packets) == 0 {
		return nil
	}
	h.lastEnd = h.batch.End
	return &h.batch
}
