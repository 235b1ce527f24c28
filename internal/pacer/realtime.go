package pacer

import (
	"sync"
	"time"
)

// RealtimeDriver drains a HostPacer against the wall clock, emitting
// each batch at its scheduled start time — the closest a pure-Go
// userspace process can come to the paper's kernel filter driver.
//
// Honesty note (and the reason this repository evaluates pacing on a
// virtual clock): the paper's driver achieves 68 ns inter-packet
// spacing because the NIC serializes the void-padded batch in
// hardware; the host only has to be punctual at batch (50 µs)
// granularity. A Go process can hold that batch-level punctuality most
// of the time, but the runtime's scheduler and GC introduce
// occasional multi-microsecond wakeup jitter that a kernel driver
// doesn't see. MeasureRealtimeJitter quantifies this on the running
// machine; EXPERIMENTS.md records typical numbers. Within a batch,
// spacing precision is unaffected — it is baked into the frame layout
// — so jitter shifts whole batches, never individual gaps.
type RealtimeDriver struct {
	Pacer *HostPacer
	// Emit receives each batch at (approximately) its Start time. The
	// batch is the pacer's (see HostPacer.NextBatch): Emit must be done
	// with it when it returns.
	Emit func(*Batch)
	// SpinBelowNs switches from time.Sleep to busy-waiting when the
	// remaining wait is below this threshold (sleep granularity on
	// Linux is ~50-100 µs; spinning burns a core for precision, the
	// same trade SENIC's software mode makes).
	SpinBelowNs int64

	mu   sync.Mutex
	stop bool
}

// NewRealtimeDriver returns a driver with a 100 µs spin threshold.
func NewRealtimeDriver(p *HostPacer, emit func(*Batch)) *RealtimeDriver {
	return &RealtimeDriver{Pacer: p, Emit: emit, SpinBelowNs: 100_000}
}

// Run drains the pacer until it is empty or Stop is called, pacing
// batch starts against the wall clock. The epoch parameter anchors
// pacer time 0 to a wall-clock instant. Returns the number of batches
// emitted.
func (d *RealtimeDriver) Run(epoch time.Time) int {
	batches := 0
	for {
		d.mu.Lock()
		stopped := d.stop
		d.mu.Unlock()
		if stopped {
			return batches
		}
		now := int64(time.Since(epoch))
		batch := d.Pacer.NextBatch(now)
		if batch == nil {
			// Re-check for future work; park if truly empty.
			future := int64(-1)
			for _, vm := range d.Pacer.VMs() {
				if r, ok := vm.NextEventTime(); ok && (future < 0 || r < future) {
					future = r
				}
			}
			if future < 0 {
				return batches
			}
			d.waitUntil(epoch, future)
			continue
		}
		d.waitUntil(epoch, batch.Start)
		d.Emit(batch)
		batches++
	}
}

// Stop aborts a running Run.
func (d *RealtimeDriver) Stop() {
	d.mu.Lock()
	d.stop = true
	d.mu.Unlock()
}

// waitUntil sleeps (coarse) then spins (fine) until pacer-time target.
func (d *RealtimeDriver) waitUntil(epoch time.Time, target int64) {
	for {
		remain := target - int64(time.Since(epoch))
		if remain <= 0 {
			return
		}
		if remain > d.SpinBelowNs {
			time.Sleep(time.Duration(remain - d.SpinBelowNs))
			continue
		}
		// Busy-wait the final stretch.
		for int64(time.Since(epoch)) < target {
		}
		return
	}
}

// RealtimeJitter summarizes wall-clock batch punctuality.
type RealtimeJitter struct {
	Batches int
	// MeanNs/P99Ns/MaxNs of (actual emit − scheduled start).
	MeanNs, P99Ns, MaxNs int64
}

// MeasureRealtimeJitter paces `batches` batches of a backlogged VM at
// the given rate on real hardware and reports how late each batch was
// emitted relative to its schedule. This is the experiment behind the
// repository's claim that Go userspace pacing holds ~batch-level
// punctuality but not a kernel driver's determinism.
func MeasureRealtimeJitter(lineRateBps, vmRateBps float64, batches int) RealtimeJitter {
	vm := NewVM(1, Guarantee{
		BandwidthBps: vmRateBps,
		BurstBytes:   3000,
		BurstRateBps: lineRateBps,
		MTUBytes:     1518,
	}, 0)
	hp := NewHostPacer(NewBatcher(lineRateBps))
	hp.AddVM(vm)
	// Enough backlog to fill the requested batches.
	perBatch := int(vmRateBps*50e-6/1518) + 2
	for i := 0; i < batches*perBatch+64; i++ {
		vm.Enqueue(0, 2, 1518, nil)
	}

	lates := make([]int64, 0, batches)
	epoch := time.Now()
	d := NewRealtimeDriver(hp, func(b *Batch) {
		late := int64(time.Since(epoch)) - b.Start
		if late < 0 {
			late = 0
		}
		lates = append(lates, late)
		if len(lates) >= batches {
			// Stop after enough samples.
		}
	})
	go func() {
		// Bound the measurement run.
		time.Sleep(time.Duration(batches+20) * 60 * time.Microsecond)
		d.Stop()
	}()
	d.Run(epoch)

	res := RealtimeJitter{Batches: len(lates)}
	if len(lates) == 0 {
		return res
	}
	var sum int64
	for _, l := range lates {
		sum += l
		if l > res.MaxNs {
			res.MaxNs = l
		}
	}
	res.MeanNs = sum / int64(len(lates))
	// Nearest-rank p99 on a copy.
	sorted := append([]int64(nil), lates...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := (99*len(sorted) + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	res.P99Ns = sorted[idx]
	return res
}
