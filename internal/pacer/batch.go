package pacer

import (
	"math"

	"repro/internal/units"
)

// Batch is one NIC I/O batch: a back-to-back train of data and void
// frames the NIC transmits at line rate. Void frames occupy wire time
// so that each data frame departs at (approximately) its Release
// stamp (paper Figure 9).
type Batch struct {
	Packets []Packet
	// Start is the wire time of the first byte; End is the wire time
	// at which the last frame finishes serializing.
	Start, End int64
	// DataBytes and VoidBytes split the batch's wire bytes.
	DataBytes, VoidBytes int
}

// DataPackets counts non-void frames.
func (b *Batch) DataPackets() int {
	n := 0
	for i := range b.Packets {
		if !b.Packets[i].Void {
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
}

// NewBatcher returns a batcher with the paper's defaults for the given
// line rate.
func NewBatcher(lineRateBps float64) *Batcher {
	return &Batcher{
		LineRateBps: lineRateBps,
		BatchNs:     50_000, // 50 µs
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
// departs within one units.MinWireBytes slot of its stamp; per the paper,
// voids are only generated while another data packet is waiting, so an
// idle tail generates no filler. The batch is the caller's to keep.
func (b *Batcher) Build(start int64, vms []*VM) *Batch {
	batch := &Batch{}
	b.build(batch, start, vms)
	return batch
}

// build fills batch (empty on entry) for the window starting at start.
func (b *Batcher) build(batch *Batch, start int64, vms []*VM) {
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

		if best > cursor {
			gap := b.gapBytes(best - cursor)
			if gap > b.gapBytes(end-cursor) {
				gap = b.gapBytes(end - cursor)
			}
			cursor = b.pad(batch, cursor, gap)
		}
		if cursor >= end {
			// Padding consumed the window; the packet stays queued for
			// the next batch.
			break
		}
		batch.Packets = append(batch.Packets, *src.ready.front())
		src.ready.drop()
		p := &batch.Packets[len(batch.Packets)-1]
		p.Wire = cursor
		batch.DataBytes += p.Bytes
		cursor += b.wireNs(p.Bytes)
	}
	batch.End = cursor
}

// pad appends void frames covering gap wire bytes starting at cursor
// and returns the new cursor. The residual below units.MinWireBytes is
// rounded to the nearest legal layout: an extra minimum void if the
// residual exceeds half a slot (data late by < 34 ns), nothing
// otherwise (data early by < 34 ns).
func (b *Batcher) pad(batch *Batch, cursor int64, gap int) int64 {
	for gap >= units.MinWireBytes {
		n := gap
		if n > units.MaxWireBytes {
			n = units.MaxWireBytes
		}
		// Never leave an illegal residual between units.MinWireBytes-1 and 1.
		if rem := gap - n; rem > 0 && rem < units.MinWireBytes {
			n = gap - units.MinWireBytes
			if n < units.MinWireBytes {
				// gap in [MinVoid, 2*MinVoid): emit a single void of
				// the full gap (it is <= 2*units.MaxWireBytes in practice).
				n = gap
			}
		}
		cursor = b.void(batch, cursor, n)
		gap -= n
	}
	if gap >= units.MinWireBytes/2 {
		cursor = b.void(batch, cursor, units.MinWireBytes)
	}
	return cursor
}

// void appends one n-byte void frame at cursor and returns the wire
// time at which it ends.
func (b *Batcher) void(batch *Batch, cursor int64, n int) int64 {
	batch.Packets = append(batch.Packets, Packet{Bytes: n, Wire: cursor, Void: true})
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
	// call.
	batch Batch
}

// NewHostPacer returns a pacer for one host NIC.
func NewHostPacer(batcher *Batcher) *HostPacer {
	return &HostPacer{Batcher: batcher}
}

// AddVM registers a VM whose traffic this NIC carries.
func (h *HostPacer) AddVM(vm *VM) { h.vms = append(h.vms, vm) }

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
// Each call rebuilds the one batch in place, in the same backing array;
// its frames are values, so a caller keeps any frame it copies out.
func (h *HostPacer) NextBatch(now int64) *Batch {
	clear(h.batch.Packets) // keep no Ref alive
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
	h.Batcher.build(&h.batch, start, h.vms)
	if len(h.batch.Packets) == 0 {
		return nil
	}
	h.lastEnd = h.batch.End
	return &h.batch
}
