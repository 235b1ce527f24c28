package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	if r.Sampled(0) {
		t.Error("nil recorder samples")
	}
	r.Emit(FlightDeliver, 1, 2, 3, 4, 0) // must not panic
	if r.SampleN() != 0 || r.Emitted() != 0 || r.Overwritten() != 0 || r.Events() != nil {
		t.Error("nil recorder reports state")
	}
}

func TestFlightRecorderSampling(t *testing.T) {
	r := NewFlightRecorder(16, 1)
	if r.SampleN() != 1 {
		t.Errorf("SampleN = %d, want 1", r.SampleN())
	}
	for pkt := uint64(0); pkt < 10; pkt++ {
		if !r.Sampled(pkt) {
			t.Errorf("sampleN=1 skipped pkt %d", pkt)
		}
	}
	// 5 rounds up to 8.
	r = NewFlightRecorder(16, 5)
	if r.SampleN() != 8 {
		t.Errorf("SampleN = %d, want 8", r.SampleN())
	}
	sampled := 0
	for pkt := uint64(0); pkt < 64; pkt++ {
		if r.Sampled(pkt) {
			sampled++
			if pkt%8 != 0 {
				t.Errorf("pkt %d sampled, want multiples of 8 only", pkt)
			}
		}
	}
	if sampled != 8 {
		t.Errorf("sampled %d of 64, want 8", sampled)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4, 1)
	// One packet keeps all its events in one shard, in order.
	for i := int64(0); i < 7; i++ {
		r.Emit(FlightPortEnqueue, i, 99, 1, i, 0)
	}
	if r.Emitted() != 7 {
		t.Errorf("Emitted = %d, want 7", r.Emitted())
	}
	if r.Overwritten() != 3 {
		t.Errorf("Overwritten = %d, want 3", r.Overwritten())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events = %d, want 4 (ring capacity)", len(evs))
	}
	for i, ev := range evs {
		if want := int64(3 + i); ev.T != want {
			t.Errorf("event %d T = %d, want %d (oldest surviving first)", i, ev.T, want)
		}
	}
}

// fig5TestPorts is a two-port path: a NIC and a ToR down-port.
var flightTestPorts = []PortMeta{
	{Name: "nic0", RateBps: 1.25e9, PropNs: 200},
	{Name: "tor0->srv1", RateBps: 1.25e9, PropNs: 200},
}

// emitTestSpan writes one packet's full lifecycle and returns the
// values the span must reproduce.
func emitTestSpan(r *FlightRecorder, pkt uint64) (total int64) {
	r.Emit(FlightVMEnqueue, 0, pkt, 10, 1500, 0)
	r.Emit(FlightTokenAdmit, 100, pkt, 10, 0, 2)
	r.Emit(FlightPortEnqueue, 150, pkt, 0, 0, 0)
	r.Emit(FlightPortTx, 150, pkt, 0, 1200, 0)
	// Arrives at hop 1 after ser+prop; waits 50 ns in the queue.
	r.Emit(FlightPortEnqueue, 1550, pkt, 1, 3000, 0)
	r.Emit(FlightPortTx, 1600, pkt, 1, 1200, 0)
	// Delivery after the last ser+prop; measured delay from first wire.
	r.Emit(FlightDeliver, 3000, pkt, 20, 3000-150, 0)
	return 3000 - 150
}

func TestAssembleFlightExactAttribution(t *testing.T) {
	r := NewFlightRecorder(64, 1)
	total := emitTestSpan(r, 7)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if !s.Complete {
		t.Fatalf("span incomplete: %+v", s)
	}
	if s.Pkt != 7 || s.SrcVM != 10 || s.DstVM != 20 || s.Bytes != 1500 {
		t.Errorf("identity fields wrong: %+v", s)
	}
	if s.TotalNs != total {
		t.Errorf("TotalNs = %d, want %d", s.TotalNs, total)
	}
	if s.AttributionErrorNs() != 0 {
		t.Errorf("attribution error = %d ns, want 0 (queue=%d ser=%d prop=%d total=%d)",
			s.AttributionErrorNs(), s.QueueNs, s.SerNs, s.PropNs, s.TotalNs)
	}
	if s.QueueNs != 50 || s.SerNs != 2400 || s.PropNs != 400 {
		t.Errorf("components = queue %d / ser %d / prop %d, want 50/2400/400",
			s.QueueNs, s.SerNs, s.PropNs)
	}
	if s.TokenWaitNs != 100 || s.BatchWaitNs != 50 || s.PacingNs != 150 {
		t.Errorf("pacing split = token %d / batch %d / total %d, want 100/50/150",
			s.TokenWaitNs, s.BatchWaitNs, s.PacingNs)
	}
	if s.Gate != 2 {
		t.Errorf("gate = %d, want 2 (avg bucket)", s.Gate)
	}
	if s.WorstPort != 1 || s.WorstQueueNs != 50 {
		t.Errorf("worst hop = port %d (%d ns), want port 1 (50 ns)", s.WorstPort, s.WorstQueueNs)
	}
	if got := RenderSpan(&s, flightTestPorts); !strings.Contains(got, "tor0->srv1") ||
		!strings.Contains(got, "avg{B,S}") {
		t.Errorf("RenderSpan missing port or gate name:\n%s", got)
	}
}

func TestAssembleFlightIncomplete(t *testing.T) {
	// Missing transmit: the packet was dropped at the port (or the tx
	// record was overwritten).
	r := NewFlightRecorder(64, 1)
	r.Emit(FlightPortEnqueue, 100, 1, 0, 0, 0)
	r.Emit(FlightDeliver, 500, 1, 20, 400, 0)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	if len(spans) != 1 || spans[0].Complete {
		t.Errorf("unpaired hop must be incomplete: %+v", spans)
	}

	// Overwritten leading hops: the measured delay disagrees with the
	// surviving first arrival.
	r = NewFlightRecorder(64, 1)
	r.Emit(FlightPortEnqueue, 1550, 2, 1, 0, 0)
	r.Emit(FlightPortTx, 1550, 2, 1, 1200, 0)
	r.Emit(FlightDeliver, 2950, 2, 20, 2800, 0) // true delay from the lost hop
	spans = AssembleFlight(r.Events(), flightTestPorts)
	if len(spans) != 1 || spans[0].Complete {
		t.Errorf("span with overwritten leading hops must be incomplete: %+v", spans)
	}

	// Never delivered (still in flight or dropped downstream).
	r = NewFlightRecorder(64, 1)
	r.Emit(FlightPortEnqueue, 100, 3, 0, 0, 0)
	r.Emit(FlightPortTx, 100, 3, 0, 1200, 0)
	spans = AssembleFlight(r.Events(), flightTestPorts)
	if len(spans) != 1 || spans[0].Complete {
		t.Errorf("undelivered span must be incomplete: %+v", spans)
	}
}

func TestAnnotateSpansBounds(t *testing.T) {
	r := NewFlightRecorder(64, 1)
	emitTestSpan(r, 7)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	a := NewGuaranteeAuditor(nil)
	a.Admit(42, 1e9, 100e3, 1e-6) // d = 1 µs < the 2.85 µs span
	viol := AnnotateSpans(spans, a, func(vmID int) (int, bool) { return 42, vmID == 20 })
	if spans[0].TenantID != 42 || spans[0].BoundNs != 1000 {
		t.Errorf("annotation wrong: tenant=%d bound=%d", spans[0].TenantID, spans[0].BoundNs)
	}
	if len(viol) != 1 || !viol[0].Violated() {
		t.Errorf("violations = %v, want the one over-bound span", viol)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := NewFlightRecorder(64, 1)
	emitTestSpan(r, 7)
	emitTestSpan(r, 8)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	dir := t.TempDir()

	// JSON round-trips everything, hops included.
	jsonPath := filepath.Join(dir, "trace.json")
	if err := WriteTraceFile(jsonPath, flightTestPorts, spans); err != nil {
		t.Fatal(err)
	}
	ports, got, err := ReadTraceFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ports, flightTestPorts) {
		t.Errorf("ports did not round-trip: %+v", ports)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("spans did not round-trip:\n got %+v\nwant %+v", got, spans)
	}

	// CSV preserves span-level attribution (no hop lists).
	csvPath := filepath.Join(dir, "trace.csv")
	if err := WriteTraceFile(csvPath, flightTestPorts, spans); err != nil {
		t.Fatal(err)
	}
	_, gotCSV, err := ReadTraceFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCSV) != len(spans) {
		t.Fatalf("CSV spans = %d, want %d", len(gotCSV), len(spans))
	}
	for i := range gotCSV {
		g, w := gotCSV[i], spans[i]
		if g.Pkt != w.Pkt || g.TotalNs != w.TotalNs || g.QueueNs != w.QueueNs ||
			g.SerNs != w.SerNs || g.PropNs != w.PropNs || g.PacingNs != w.PacingNs ||
			g.Complete != w.Complete || g.Gate != w.Gate {
			t.Errorf("CSV span %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}

	// Not-a-trace inputs fail with a clear error.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"traceEvents":[]}`), 0o644)
	if _, _, err := ReadTraceFile(bad); err == nil || !strings.Contains(err.Error(), "otherData.silo") {
		t.Errorf("foreign Chrome trace error = %v", err)
	}
}

func TestValidateOutputPath(t *testing.T) {
	dir := t.TempDir()
	for _, ok := range []string{"", "-", filepath.Join(dir, "out.json")} {
		if err := ValidateOutputPath("-trace", ok); err != nil {
			t.Errorf("ValidateOutputPath(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{dir, filepath.Join(dir, "missing", "out.json")} {
		if err := ValidateOutputPath("-trace", bad); err == nil {
			t.Errorf("ValidateOutputPath(%q) = nil, want error", bad)
		} else if !strings.Contains(err.Error(), "-trace") {
			t.Errorf("error %q does not name the flag", err)
		}
	}
}

func TestFlightEmitZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(1<<10, 64)
	pkt := uint64(0)
	if got := testing.AllocsPerRun(1000, func() {
		if r.Sampled(pkt) {
			r.Emit(FlightPortEnqueue, 1, pkt, 3, 64, 0)
		}
		pkt++
	}); got != 0 {
		t.Errorf("allocs per emit = %g, want 0", got)
	}
}

// BenchmarkFlightRecorder measures the emit hot path (sampling gate
// included); the 0 allocs/op is asserted by TestFlightEmitZeroAlloc.
func BenchmarkFlightRecorder(b *testing.B) {
	r := NewFlightRecorder(1<<14, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := uint64(i)
		if r.Sampled(pkt) {
			r.Emit(FlightPortEnqueue, int64(i), pkt, 3, 64, 0)
		}
	}
}

// BenchmarkFlightRecorderEmit isolates the pure Emit cost (every
// packet sampled, ring wrapping continuously).
func BenchmarkFlightRecorderEmit(b *testing.B) {
	r := NewFlightRecorder(1<<14, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(FlightPortEnqueue, int64(i), uint64(i), 3, 64, 0)
	}
}

// BenchmarkFlightRecorderUnsampled isolates the cost paid by the 63 of
// 64 packets the sampler rejects.
func BenchmarkFlightRecorderUnsampled(b *testing.B) {
	r := NewFlightRecorder(1<<14, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := uint64(i)*64 + 1 // never sampled
		if r.Sampled(pkt) {
			r.Emit(FlightPortEnqueue, int64(i), pkt, 3, 64, 0)
		}
	}
}

// BenchmarkWriteChromeTrace measures the trace plane's exit path: 10 K
// three-hop spans to Chrome trace_event JSON, MB/s of document written.
func BenchmarkWriteChromeTrace(b *testing.B) {
	ports := syntheticPorts(40)
	spans := syntheticSpans(10000, len(ports))
	var doc bytes.Buffer
	if err := WriteChromeTrace(&doc, ports, spans); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, ports, spans); err != nil {
			b.Fatal(err)
		}
	}
}
