package obs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	if r.Sampled(0) {
		t.Error("nil recorder samples")
	}
	r.Emit(FlightDeliver, 1, 2, 3, 4, 0) // must not panic
	if r.SampleN() != 0 || r.Events() != nil {
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
	// A wrap keeps the most recent events, in emission order.
	for i := int64(0); i < 7; i++ {
		r.Emit(FlightPortEnqueue, i, 99, 1, i, 0)
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

// refFlightRing is the flight recorder with its ring allocated at full
// capacity up front, the reference for the recorder's ring that grows on
// demand.
type refFlightRing struct {
	ring       []FlightEvent
	pos        uint64
	mask       uint64
	sampleMask uint64
}

func newRefFlightRing(events, sampleN int) *refFlightRing {
	capacity := ceilPow2(events)
	r := &refFlightRing{ring: make([]FlightEvent, capacity), mask: capacity - 1}
	if sampleN > 1 {
		r.sampleMask = ceilPow2(sampleN) - 1
	}
	return r
}

func (r *refFlightRing) emit(ev FlightEvent) {
	r.ring[r.pos&r.mask] = ev
	r.pos++
}

// events lists the retained events, oldest first.
func (r *refFlightRing) events() []FlightEvent {
	out := []FlightEvent{}
	for j := r.pos - min(r.pos, r.mask+1); j < r.pos; j++ {
		out = append(out, r.ring[j&r.mask])
	}
	return out
}

// TestFlightRingGrowthEquivalenceProperty holds FlightRecorder to the
// fully preallocated reference ring: over random capacities, sampling
// divisors and emit counts that stop before the ring fills, while it
// grows, and after it wraps, both keep the same events in the same
// order, so the same spans assemble. The ring never grows past its
// capacity.
func TestFlightRingGrowthEquivalenceProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 120; iter++ {
		size := 1 + rng.Intn(1<<uint(rng.Intn(13)))
		sampleN := rng.Intn(10)
		r, ref := NewFlightRecorder(size, sampleN), newRefFlightRing(size, sampleN)
		if r.SampleN() != int(ref.sampleMask+1) {
			t.Fatalf("seed %d: size %d sampleN %d: SampleN = %d, want %d", seed, size, sampleN, r.SampleN(), ref.sampleMask+1)
		}
		capacity := ref.mask + 1
		check := func(emitted int) {
			if got, want := r.Events(), ref.events(); !slices.Equal(got, want) {
				t.Fatalf("seed %d: size %d sampleN %d: after %d emits Events() differs from the reference: %d vs %d events",
					seed, size, sampleN, emitted, len(got), len(want))
			}
			if n := uint64(len(r.buf)); n > capacity {
				t.Fatalf("seed %d: the ring holds %d records, capacity %d", seed, n, capacity)
			}
		}
		emitted := 0
		emit := func(kind uint8, ts int64, pkt uint64, port int32, arg int64, gate uint8) {
			if !r.Sampled(pkt) {
				return
			}
			r.Emit(kind, ts, pkt, port, arg, gate)
			ref.emit(FlightEvent{T: ts, Pkt: pkt, Arg: arg, Port: port, Kind: kind, Gate: gate})
			if emitted++; emitted&(emitted-1) == 0 {
				check(emitted)
			}
		}
		// About eight events per packet and one packet in r.SampleN()
		// sampled: up to about three wraps of the ring.
		ports := syntheticPorts(1 + rng.Intn(12))
		randLifecycles(rng, emit, 1+rng.Intn(int(capacity)*r.SampleN()*3/8+2), len(ports))
		check(emitted)
		events := r.Events()
		if got, want := AssembleFlight(events, ports), AssembleFlight(ref.events(), ports); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: size %d sampleN %d: %d events: spans differ from the reference's", seed, size, sampleN, len(events))
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
	if got := RenderSpan(&s, flightTestPorts); !strings.HasPrefix(got, "pkt 7  vm10 -> vm20  1500B") ||
		!strings.Contains(got, "tor0->srv1") || !strings.Contains(got, "avg{B,S}") {
		t.Errorf("RenderSpan missing sender, port or gate name:\n%s", got)
	}
}

// An unpaced packet (or an ack) passes no pacer enqueue, the one event
// that carries the sending VM, and a paced packet's can be overwritten
// in the ring: such a span renders the sender as vm?, not as VM 0.
func TestRenderSpanUnpacedSenderUnknown(t *testing.T) {
	r := NewFlightRecorder(64, 1)
	r.Emit(FlightPortEnqueue, 0, 9, 0, 0, 0)
	r.Emit(FlightPortTx, 0, 9, 0, 1200, 0)
	r.Emit(FlightDeliver, 1400, 9, 20, 1400, 0)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	if len(spans) != 1 || spans[0].EnqueueNs != -1 || spans[0].SrcVM != 0 {
		t.Fatalf("spans = %+v, want one without an enqueue", spans)
	}
	if got := RenderSpan(&spans[0], flightTestPorts); !strings.HasPrefix(got, "pkt 9  vm? -> vm20  1500B") {
		t.Errorf("unpaced span renders:\n%s", got)
	}
}

// A ring that wraps can overwrite a paced packet's VM enqueue and keep
// its token admit: the span is still complete, but its pacing is
// unknown, so the roll-up leaves it out of the pacing mean instead of
// counting it as zero. Its NIC-to-NIC attribution still counts.
func TestSummarizeFlightSkipsOverwrittenEnqueue(t *testing.T) {
	const wrapped, other, next = 7, 8, 9
	r := NewFlightRecorder(16, 1)
	emitTestSpan(r, wrapped)
	emitTestSpan(r, other)
	// Three more events fill the 16-event ring and overwrite the oldest
	// one, wrapped's VM enqueue.
	r.Emit(FlightVMEnqueue, 3100, next, 11, 1500, 0)
	r.Emit(FlightTokenAdmit, 3200, next, 11, 0, 2)
	r.Emit(FlightPortEnqueue, 3300, next, 0, 0, 0)

	spans := AssembleFlight(r.Events(), flightTestPorts)
	byPkt := map[uint64]FlightSpan{}
	for _, s := range spans {
		byPkt[s.Pkt] = s
	}
	if s := byPkt[wrapped]; !s.Complete || s.AdmitNs < 0 || s.EnqueueNs >= 0 {
		t.Fatalf("span %d = %+v, want complete with an admit and no enqueue", wrapped, s)
	}
	if s := byPkt[other]; !s.Complete || s.PacingNs != 150 {
		t.Fatalf("span %d = %+v, want complete with 150 ns of pacing", other, s)
	}
	sum := SummarizeFlight(spans)
	if sum.Complete != 2 || sum.MeanPacingNs != 150 || sum.MeanTotalNs != 2850 {
		t.Errorf("summary = %+v, want 2 complete spans, mean pacing 150 ns over the one known, mean total 2850 ns over both", sum)
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
	a := NewGuaranteeAuditor()
	a.Admit(42, 1e-6) // d = 1 µs < the 2.85 µs span
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
	if err := WriteTraceFileMeta(jsonPath, nil, flightTestPorts, spans); err != nil {
		t.Fatal(err)
	}
	_, ports, got, err := ReadTraceFileMeta(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ports, flightTestPorts) {
		t.Errorf("ports did not round-trip: %+v", ports)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("spans did not round-trip:\n got %+v\nwant %+v", got, spans)
	}

	// Not-a-trace inputs fail with a clear error.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"traceEvents":[]}`), 0o644)
	if _, _, _, err := ReadTraceFileMeta(bad); err == nil || !strings.Contains(err.Error(), "otherData.silo") {
		t.Errorf("foreign Chrome trace error = %v", err)
	}
	whole, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(bad, whole[:len(whole)/2], 0o644)
	if _, _, _, err := ReadTraceFileMeta(bad); err == nil || !strings.Contains(err.Error(), "not a silo trace") {
		t.Errorf("truncated trace error = %v", err)
	}
	missing := filepath.Join(dir, "missing", "trace.json")
	if _, _, _, err := ReadTraceFileMeta(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("reading a missing trace: error %v, want not-exist", err)
	}
	if err := WriteTraceFileMeta(missing, nil, flightTestPorts, spans); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("writing into a missing directory: error %v, want not-exist", err)
	}
}

// TestValidateOutputPath drives every return: an unset flag and a file
// in an existing directory pass; each refusal names the flag and why.
func TestValidateOutputPath(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, want string // want = "" for no error
	}{
		{"", ""},
		{filepath.Join(dir, "out.json"), ""},
		// Stdout carries the rendered reports, so "-" is refused.
		{"-", "cannot write to stdout"},
		{dir, "is a directory"},
		{filepath.Join(dir, "missing", "out.json"), "does not exist"},
		{filepath.Join(file, "out.json"), "is not a directory"},
	} {
		err := ValidateOutputPath("-trace", tc.path)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("ValidateOutputPath(%q) = %v, want nil", tc.path, err)
		case tc.want == "":
		case err == nil:
			t.Errorf("ValidateOutputPath(%q) = nil, want %q", tc.path, tc.want)
		case !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "-trace: "):
			t.Errorf("ValidateOutputPath(%q) = %q, want the flag and %q", tc.path, err, tc.want)
		}
	}
}

// fillFlightRing emits sampled packets until the ring holds its
// capacity, so it does not grow again; it returns the next packet.
func fillFlightRing(r *FlightRecorder) uint64 {
	pkt := uint64(0)
	for r.pos <= r.mask {
		if r.Sampled(pkt) {
			r.Emit(FlightPortEnqueue, 1, pkt, 3, 64, 0)
		}
		pkt++
	}
	return pkt
}

// TestFlightEmitZeroAlloc fills the ring to its capacity first, so the
// steady-state emit is held to exactly 0 allocations, not to an average
// that rounds the growing ring's allocations down.
func TestFlightEmitZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(1<<10, 64)
	pkt := fillFlightRing(r)
	if got := testing.AllocsPerRun(1000, func() {
		if r.Sampled(pkt) {
			r.Emit(FlightPortEnqueue, 1, pkt, 3, 64, 0)
		}
		pkt++
	}); got != 0 {
		t.Errorf("allocs per emit = %g, want 0", got)
	}
}

// TestFlightRingGrowthAllocs bounds what the ring allocates while it
// grows: the recorder, then one allocation per doubling of the ring
// from flightFirstRing to its capacity.
func TestFlightRingGrowthAllocs(t *testing.T) {
	for _, capacity := range []int{1, flightFirstRing, 1 << 10, DefaultFlightEvents} {
		doublings := 1
		for n := flightFirstRing; n < capacity; n *= 2 {
			doublings++
		}
		want := float64(1 + doublings)
		if got := testing.AllocsPerRun(3, func() { fillFlightRing(NewFlightRecorder(capacity, 1)) }); got > want {
			t.Errorf("capacity %d: filling the ring allocates %g times, want at most %g", capacity, got, want)
		}
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
	if err := writeChromeTrace(&doc, nil, ports, spans); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeChromeTrace(io.Discard, nil, ports, spans); err != nil {
			b.Fatal(err)
		}
	}
}
