package durable

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/tenant"
)

// benchMutation is the placement record the append and decode
// benchmarks log.
func benchMutation() *placement.Mutation {
	return &placement.Mutation{
		Op: placement.MutPlace,
		Spec: tenant.Spec{
			ID: 42, Name: "bench-tenant", VMs: 4, FaultDomains: 2,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 1e8, BurstBytes: 1.5e4, DelayBound: 1e-3, BurstRateBps: 1.25e9,
			},
		},
		Servers: []int{3, 9, 17, 21},
	}
}

// syncBatch is the benchmark WAL's fsync batch: one fsync per 64
// appends.
const syncBatch = 64

// warmWAL opens a WAL with fsync batching at syncBatch and appends one
// record, so the reused encode buffer is grown and later appends are
// steady-state.
func warmWAL(tb testing.TB, mut *placement.Mutation) *wal {
	tb.Helper()
	w, err := createWAL(tb.TempDir()+"/bench.log", 0, syncBatch)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.close() })
	if err := w.append(1, mut); err != nil {
		tb.Fatal(err)
	}
	return w
}

// The WAL append — encode + write of one placement record, batched
// fsync included — must not allocate: the encode buffer is reused and
// the retry loop is closure-free. One run is one fsync batch, so an
// allocation once per fsync shows as well as one per record.
func TestAppendZeroAllocs(t *testing.T) {
	mut := benchMutation()
	w := warmWAL(t, mut)
	seq := uint64(1)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < syncBatch; i++ {
			seq++
			if err := w.append(seq, mut); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("WAL append allocates %v per %d-record fsync batch, want 0", allocs, syncBatch)
	}
}

// BenchmarkWALAppend times the append TestAppendZeroAllocs holds to
// zero allocations: pure encoding plus the write syscall, one fsync per
// syncBatch records.
func BenchmarkWALAppend(b *testing.B) {
	mut := benchMutation()
	w := warmWAL(b, mut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.append(uint64(i+2), mut); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bytesPerOp := float64(w.size) / float64(b.N+1)
	b.ReportMetric(bytesPerOp, "bytes/rec")
}

// BenchmarkWALDecode measures the replay-side decode of one record.
func BenchmarkWALDecode(b *testing.B) {
	buf := appendRecord(nil, 1, benchMutation())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}
