package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden.json from the oracle")

// The streaming Chrome-trace encoder and the sorted span assembly must
// reproduce, byte for byte and field for field, what the reflective
// writer and the map-of-slices assembler in oracle_test.go produce.

// nastyPortNames exercise every string escape encoding/json applies.
var nastyPortNames = []string{
	"tor0->srv3", "nic0", "a<b>&c", `q"uote\back`, "日本語", "\xff\xfe bad utf8",
	"", "line\u2028sep\u2029", "ctl\x01\n\t\r", "pod1->core0", "é\u00a0",
}

// edgeNs are the nanosecond stamps worth hitting: the omitted-dur and
// skipped-event zeros, the -1 sentinels, and values a float64 cannot
// hold exactly.
var edgeNs = []int64{0, 0, 1, -1, -1, 999, 1000, 1500, 8594229649871, -73, 1 << 53, 1<<53 + 1,
	-(1<<53 + 1), math.MaxInt64, math.MinInt64, 1e18 + 7}

func randNs(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return edgeNs[rng.Intn(len(edgeNs))]
	}
	return rng.Int63n(4e8)
}

func randPorts(rng *rand.Rand) []PortMeta {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []PortMeta{}
	}
	ports := make([]PortMeta, 1+rng.Intn(12))
	for i := range ports {
		ports[i] = PortMeta{
			Name:    nastyPortNames[rng.Intn(len(nastyPortNames))],
			RateBps: []float64{1.25e9, 0, 1e-7, 1e21, 1.25e10, 3.3}[rng.Intn(6)],
			PropNs:  rng.Int63n(1000),
		}
	}
	return ports
}

func randMeta(rng *rand.Rand) *RunMeta {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return &RunMeta{Tool: "silo-sim", Version: "unknown"}
	}
	return &RunMeta{Tool: "silo-sim", Version: "abc123-dirty", Seed: rng.Int63(),
		Scheme: "silo", Flags: `-trace "a<b>.json" -x &y`}
}

func randSpan(rng *rand.Rand, nPorts int) FlightSpan {
	s := FlightSpan{
		Pkt: rng.Uint64() >> uint(rng.Intn(64)), SrcVM: int32(rng.Intn(400)) - 1, DstVM: rng.Int31(),
		Bytes: randNs(rng), EnqueueNs: randNs(rng), AdmitNs: randNs(rng), Gate: uint8(rng.Intn(256)),
		WireNs: randNs(rng), DeliverNs: randNs(rng),
		TokenWaitNs: randNs(rng), BatchWaitNs: randNs(rng), PacingNs: randNs(rng),
		QueueNs: randNs(rng), SerNs: randNs(rng), PropNs: randNs(rng), TotalNs: randNs(rng),
		WorstPort: int32(rng.Intn(nPorts+3)) - 1, WorstQueueNs: randNs(rng),
		Complete: rng.Intn(2) == 0, TenantID: int32(rng.Intn(50)) - 2, BoundNs: randNs(rng),
	}
	switch n := rng.Intn(8); n {
	case 0: // nil hops
	case 1:
		s.Hops = []FlightHop{}
	default:
		s.Hops = make([]FlightHop, n-1)
		for i := range s.Hops {
			s.Hops[i] = FlightHop{
				// In range, the port%d fallback above it, and negative IDs.
				Port:     int32(rng.Intn(nPorts+4)) - 2,
				ArriveNs: randNs(rng), TxStartNs: randNs(rng), SerNs: randNs(rng),
				PropNs: randNs(rng), QueueNs: randNs(rng), OccupiedBytes: randNs(rng),
			}
		}
	}
	return s
}

func randSpans(rng *rand.Rand, n, nPorts int) []FlightSpan {
	spans := make([]FlightSpan, n)
	for i := range spans {
		spans[i] = randSpan(rng, nPorts)
	}
	return spans
}

// roundTripForm is what a recording reads back as: an empty hop list
// is omitted on disk, and invalid UTF-8 in a name becomes U+FFFD.
func roundTripForm(ports []PortMeta, spans []FlightSpan) ([]PortMeta, []FlightSpan) {
	if ports != nil {
		ports = slices.Clone(ports)
		for i := range ports {
			ports[i].Name = string([]rune(ports[i].Name)) // U+FFFD per invalid byte
		}
	}
	if spans != nil {
		spans = slices.Clone(spans)
		for i := range spans {
			if len(spans[i].Hops) == 0 {
				spans[i].Hops = nil
			}
		}
	}
	return ports, spans
}

// checkTraceBytes writes one recording through both writers and through
// a file, and reports any difference.
func checkTraceBytes(t *testing.T, label string, meta *RunMeta, ports []PortMeta, spans []FlightSpan) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := writeChromeTrace(&got, meta, ports, spans)
	werr := oracleWriteChromeTrace(&want, meta, ports, spans)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error = %v, oracle error = %v", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-60, 0)
		t.Fatalf("%s: bytes differ at offset %d of %d/%d:\n got …%s\nwant …%s", label, i, len(g), len(w),
			g[lo:min(i+60, len(g))], w[lo:min(i+60, len(w))])
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFileMeta(path, meta, ports, spans); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatalf("%s: file differs from the oracle's bytes (read error %v)", label, err)
	}
	rmeta, rports, rspans, err := ReadTraceFileMeta(path)
	if err != nil {
		t.Fatalf("%s: read back: %v", label, err)
	}
	wports, wspans := roundTripForm(ports, spans)
	if !reflect.DeepEqual(rmeta, meta) || !reflect.DeepEqual(rports, wports) || !reflect.DeepEqual(rspans, wspans) {
		t.Fatalf("%s: recording did not round-trip", label)
	}
}

func TestChromeTraceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkTraceBytes(t, "nil everything", nil, nil, nil)
	checkTraceBytes(t, "empty slices", &RunMeta{}, []PortMeta{}, []FlightSpan{})
	for i := 0; i < 300; i++ {
		ports := randPorts(rng)
		var spans []FlightSpan // nil on the first round
		if n := rng.Intn(40); i > 0 {
			spans = randSpans(rng, n, len(ports))
		}
		checkTraceBytes(t, "small", randMeta(rng), ports, spans)
	}
	for _, n := range []int{1, 3000} {
		ports := randPorts(rng)
		checkTraceBytes(t, "large", randMeta(rng), ports, randSpans(rng, n, len(ports)))
	}
	// Every gate value, on a span that has a pacing event.
	spans := make([]FlightSpan, 256)
	for g := range spans {
		spans[g] = FlightSpan{Pkt: uint64(g), Gate: uint8(g), PacingNs: 10, TokenWaitNs: 4, BatchWaitNs: 6}
	}
	checkTraceBytes(t, "gates", nil, flightTestPorts, spans)
	// A rate encoding/json refuses fails both writers before any byte.
	checkTraceBytes(t, "NaN rate", nil, []PortMeta{{Name: "x", RateBps: math.NaN()}}, spans[:1])
}

func TestAppendJSONFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	vals := []float64{0, 1, -1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e21, 9.99e20, -1e21, 1e-9, 1e-10, 1e100,
		8594229649.871, 0.001, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), float64(rng.Int63())/1e3)
	}
	for _, f := range vals {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestAppendMicrosProperty holds the integer microsecond formatter to
// the float path it replaces, strconv's shortest 'f' of ns/1e3, on
// random ns of every magnitude below 1e15 (uniform in the exponent, so
// small and large timestamps are drawn alike), the edges around the
// cut-over, and beyond it, where both take the float path. Each run
// draws a fresh seed.
func TestAppendMicrosProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	vals := []int64{0, 1, 9, 10, 99, 100, 999, 1000, 1001, 1010, 1100, 123456789, 1e15 - 1, 1e15, 1e15 + 1,
		1<<53 - 1, 1 << 53, 9.4e15, math.MaxInt64, -1, -1000, -123456789, math.MinInt64}
	for i := 0; i < 200_000; i++ {
		vals = append(vals, rng.Int63n(int64(math.Pow(10, 1+15*rng.Float64()))))
	}
	for _, ns := range vals {
		want := appendJSONFloat(nil, float64(ns)/1e3)
		if ns >= 0 && ns < 1e15 {
			if f := strconv.AppendFloat(nil, float64(ns)/1e3, 'f', -1, 64); !bytes.Equal(f, want) {
				t.Fatalf("seed %d: ns %d: strconv writes %s, encoding/json %s", seed, ns, f, want)
			}
		}
		if got := appendMicros(nil, ns); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: appendMicros(%d) = %s, float path writes %s", seed, ns, got, want)
		}
	}
}

// goldenRecording is a few spans with fixed provenance: two delivered
// packets, one dropped at its second port, tenant bounds annotated.
func goldenRecording() (*RunMeta, []PortMeta, []FlightSpan) {
	r := NewFlightRecorder(64, 1)
	emitTestSpan(r, 7)
	emitTestSpan(r, 8)
	r.Emit(FlightPortEnqueue, 200, 9, 0, 1500, 0)
	r.Emit(FlightPortTx, 1400, 9, 0, 1200, 0)
	r.Emit(FlightPortEnqueue, 2800, 9, 2, 9000, 0)
	ports := append([]PortMeta{}, flightTestPorts...)
	ports = append(ports, PortMeta{Name: "pod<0>&core", RateBps: 1.25e10, PropNs: 500})
	spans := AssembleFlight(r.Events(), ports)
	for i := range spans {
		spans[i].TenantID, spans[i].BoundNs = 3, 2800
	}
	meta := &RunMeta{Tool: "silo-sim", Version: "golden", Seed: 11, Scheme: "silo", Flags: "-trace trace.json"}
	return meta, ports, spans
}

// TestChromeTraceGolden pins the on-disk format against the writer and
// its oracle drifting together.
func TestChromeTraceGolden(t *testing.T) {
	meta, ports, spans := goldenRecording()
	golden := filepath.Join("testdata", "trace.golden.json")
	var want bytes.Buffer
	if err := oracleWriteChromeTrace(&want, meta, ports, spans); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want.Bytes(), file) {
		t.Errorf("oracle output drifted from %s (rerun with -update if intended)", golden)
	}
	var got bytes.Buffer
	if err := writeChromeTrace(&got, meta, ports, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), file) {
		t.Errorf("writeChromeTrace output differs from %s:\n%s", golden, got.Bytes())
	}

	// A recording from before RunMeta lost its worker count still loads.
	old := bytes.Replace(file, []byte(`"seed":11,`), []byte(`"seed":11,"workers":4,`), 1)
	if bytes.Equal(old, file) {
		t.Fatal("golden meta has no seed field to put a workers field after")
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	rmeta, _, rspans, err := ReadTraceFileMeta(path)
	if err != nil || !reflect.DeepEqual(rmeta, meta) || len(rspans) != len(spans) {
		t.Errorf("recording with \"workers\" in its meta: meta %+v, %d spans, error %v", rmeta, len(rspans), err)
	}
}

// syntheticSpans builds n delivered three-hop spans over nPorts ports,
// the shape a silo-sim recording has.
func syntheticSpans(n, nPorts int) []FlightSpan {
	spans := make([]FlightSpan, n)
	for i := range spans {
		t0 := int64(i) * 1200
		s := FlightSpan{
			Pkt: uint64(i + 1), SrcVM: int32(i % 40), DstVM: int32((i + 7) % 40), Bytes: 1500,
			EnqueueNs: t0, AdmitNs: t0 + 300, Gate: uint8(1 + i%3), WireNs: t0 + 450,
			TokenWaitNs: 300, BatchWaitNs: 150, PacingNs: 450,
			Complete: true, TenantID: int32(i % 8), BoundNs: 1e6,
		}
		at := s.WireNs
		for h := 0; h < 3; h++ {
			hop := FlightHop{Port: int32((i + h) % nPorts), ArriveNs: at, TxStartNs: at + int64(h)*40,
				SerNs: 1200, PropNs: 200, QueueNs: int64(h) * 40, OccupiedBytes: int64(h) * 3000}
			at = hop.TxStartNs + hop.SerNs + hop.PropNs
			s.Hops = append(s.Hops, hop)
			s.QueueNs += hop.QueueNs
			s.SerNs += hop.SerNs
			s.PropNs += hop.PropNs
		}
		s.DeliverNs = at
		s.TotalNs = at - s.WireNs
		s.WorstPort, s.WorstQueueNs = s.Hops[2].Port, 80
		spans[i] = s
	}
	return spans
}

func syntheticPorts(n int) []PortMeta {
	ports := make([]PortMeta, n)
	for i := range ports {
		ports[i] = PortMeta{Name: fmt.Sprintf("tor%d->srv%d", i%10, i/10), RateBps: 1.25e9, PropNs: 200}
	}
	return ports
}

// TestChromeTraceWriterAllocs: what the writer allocates depends on
// the ports it names, not on how many spans it writes.
func TestChromeTraceWriterAllocs(t *testing.T) {
	ports := syntheticPorts(40)
	allocs := func(n int) float64 {
		spans := syntheticSpans(n, len(ports))
		return testing.AllocsPerRun(5, func() {
			if err := writeChromeTrace(io.Discard, nil, ports, spans); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Exact equality would also count what the runtime allocates behind
	// a longer run (under -race, a few dozen); one allocation per span
	// would show as 10,000.
	small, large := allocs(40), allocs(10000)
	if large > small+100 {
		t.Errorf("allocations grew with the span count: %g for 40 spans, %g for 10,000", small, large)
	}
}

// randLifecycles emits the interleaved lifecycles of n packets through
// emit (a FlightRecorder's Emit, or a wrapper): paced or not, delivered,
// dropped at a port, or still in flight, sometimes crossing one port
// twice.
func randLifecycles(rng *rand.Rand, emit func(kind uint8, t int64, pkt uint64, port int32, arg int64, gate uint8), n, nPorts int) {
	type pkt struct {
		id   uint64
		evs  []FlightEvent
		next int
	}
	pkts := make([]*pkt, n)
	base := rng.Uint64() >> uint(8+rng.Intn(56)) // IDs that differ in low or in high bytes
	stride := uint64(1) << uint(rng.Intn(8))
	for i := range pkts {
		p := &pkt{id: base + uint64(i)*stride}
		t := rng.Int63n(1e6)
		if rng.Intn(4) > 0 {
			p.evs = append(p.evs, FlightEvent{Kind: FlightVMEnqueue, T: t, Port: int32(rng.Intn(40)), Arg: 1500})
			t += rng.Int63n(500)
			p.evs = append(p.evs, FlightEvent{Kind: FlightTokenAdmit, T: t, Gate: uint8(rng.Intn(5))})
			t += rng.Int63n(200)
		}
		first, fate := t, rng.Intn(8)
		hops := 1 + rng.Intn(6)
		for h := 0; h < hops; h++ {
			port := int32(rng.Intn(nPorts + 2)) // some beyond the port table
			p.evs = append(p.evs, FlightEvent{Kind: FlightPortEnqueue, T: t, Port: port, Arg: rng.Int63n(9000)})
			if fate == 0 && h == hops-1 {
				break // dropped here
			}
			t += rng.Int63n(300)
			ser := rng.Int63n(1300)
			p.evs = append(p.evs, FlightEvent{Kind: FlightPortTx, T: t, Port: port, Arg: ser})
			t += ser + 200
		}
		if fate > 1 {
			p.evs = append(p.evs, FlightEvent{Kind: FlightDeliver, T: t, Port: int32(rng.Intn(40)), Arg: t - first})
		}
		pkts[i] = p
	}
	for live := len(pkts); live > 0; {
		p := pkts[rng.Intn(len(pkts))]
		if p.next == len(p.evs) {
			continue
		}
		ev := p.evs[p.next]
		emit(ev.Kind, ev.T, p.id, ev.Port, ev.Arg, ev.Gate)
		if p.next++; p.next == len(p.evs) {
			live--
		}
	}
}

func TestAssembleFlightMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(label string, events []FlightEvent, ports []PortMeta) []FlightSpan {
		t.Helper()
		before := slices.Clone(events)
		got, want := AssembleFlight(events, ports), oracleAssembleFlight(events, ports)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d events: spans differ from the oracle's (%d vs %d spans)", label, len(events), len(got), len(want))
		}
		if !slices.Equal(events, before) {
			t.Fatalf("%s: AssembleFlight reordered its input", label)
		}
		return got
	}
	check("nil", nil, nil)
	check("empty", []FlightEvent{}, flightTestPorts)

	// Rings of 64 to 2,048 events under 1 to 300 packets: from nothing
	// overwritten to most packets headless.
	for i := 0; i < 120; i++ {
		ports := syntheticPorts(1 + rng.Intn(12))
		r := NewFlightRecorder(64<<uint(rng.Intn(6)), 1)
		randLifecycles(rng, r.Emit, 1+rng.Intn(300), len(ports))
		events := r.Events()
		if want := oracleEvents(r); !reflect.DeepEqual(events, want) {
			t.Fatalf("Events() differs from the per-event copy: %d vs %d events", len(events), len(want))
		}
		spans := check("lifecycles", events, ports)
		if i%10 == 0 {
			checkTraceBytes(t, "assembled", nil, ports, spans)
		}
	}

	// Events in no lifecycle order at all, unknown kinds included.
	for i := 0; i < 60; i++ {
		events := make([]FlightEvent, rng.Intn(2000))
		for j := range events {
			events[j] = FlightEvent{T: randNs(rng), Pkt: uint64(rng.Intn(80)) << uint(8*rng.Intn(8)),
				Arg: randNs(rng), Port: int32(rng.Intn(8)), Kind: uint8(rng.Intn(7)), Gate: uint8(rng.Intn(256))}
		}
		check("shuffled", events, flightTestPorts)
	}

	// Appending to one span's hops must not reach its neighbour's.
	r := NewFlightRecorder(64, 1)
	emitTestSpan(r, 1)
	emitTestSpan(r, 2)
	spans := AssembleFlight(r.Events(), flightTestPorts)
	want := spans[1].Hops[0]
	_ = append(spans[0].Hops, FlightHop{Port: 99})
	if spans[1].Hops[0] != want {
		t.Error("append to span 0's hops overwrote span 1's first hop")
	}
}
