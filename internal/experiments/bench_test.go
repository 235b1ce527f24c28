package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func baseRecord() BenchRecord {
	return BenchRecord{
		Benchmark: "placeub", Hosts: 100000, Requests: 2000, Accepted: 1474,
		MeanNs: 5_000_000, P50Ns: 80_000, P99Ns: 33_000_000, MaxNs: 60_000_000,
		TotalNs: 10_000_000_000, AllocsPerOp: 11_000,
	}
}

func TestBenchRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := baseRecord()
	want.Rows = []BenchRecord{{Benchmark: "placeub/other", Hosts: 1, Requests: 2, MeanNs: 3}}
	if err := WriteBenchRecord(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip: got %+v want %+v", got, want)
	}
	if _, err := LoadBenchRecord(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline loaded without error")
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	ds, err := CompareBenchRecords(baseRecord(), baseRecord(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if AnyRegression(ds) {
		t.Errorf("identical records regressed: %+v", ds)
	}
	if len(ds) != 5 {
		t.Errorf("compared %d metrics, want 5", len(ds))
	}
}

func TestCompareDoctoredBaselineRegresses(t *testing.T) {
	// The acceptance check: doctor the baseline so the "current" run
	// looks slower than tolerance allows, and the gate must trip.
	doctored := baseRecord()
	doctored.MeanNs = doctored.MeanNs / 10
	ds, err := CompareBenchRecords(doctored, baseRecord(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !AnyRegression(ds) {
		t.Fatalf("10x mean growth not flagged: %+v", ds)
	}
	table := RenderBenchDeltas("placeub", ds, 25)
	if !strings.Contains(table, "REGRESSED") || !strings.Contains(table, "mean_ns") {
		t.Errorf("render missing verdict:\n%s", table)
	}
}

func TestCompareToleranceAndDirection(t *testing.T) {
	base := baseRecord()

	// Growth inside tolerance passes.
	cur := base
	cur.MeanNs = base.MeanNs * 110 / 100
	if ds, _ := CompareBenchRecords(base, cur, 25); AnyRegression(ds) {
		t.Errorf("+10%% within 25%% tolerance regressed: %+v", ds)
	}

	// Improvement always passes, however large.
	cur = base
	cur.MeanNs, cur.P99Ns, cur.AllocsPerOp = 1, 1, 0
	if ds, _ := CompareBenchRecords(base, cur, 25); AnyRegression(ds) {
		t.Error("large improvement flagged as regression")
	}

	// Allocation growth past tolerance gates.
	cur = base
	cur.AllocsPerOp = base.AllocsPerOp * 2
	if ds, _ := CompareBenchRecords(base, cur, 25); !AnyRegression(ds) {
		t.Error("2x allocs/op not flagged")
	}

	// A zero baseline growing to nonzero gates (the zero-alloc pledge).
	base.AllocsPerOp = 0
	cur = base
	cur.AllocsPerOp = 3
	if ds, _ := CompareBenchRecords(base, cur, 25); !AnyRegression(ds) {
		t.Error("0 -> 3 allocs/op not flagged")
	}

	// max_ns and p50_ns are context, not gates.
	base = baseRecord()
	cur = base
	cur.MaxNs, cur.P50Ns = base.MaxNs*10, base.P50Ns*10
	if ds, _ := CompareBenchRecords(base, cur, 25); AnyRegression(ds) {
		t.Error("non-gating max/p50 growth tripped the gate")
	}
}

func TestCompareRefusesMismatch(t *testing.T) {
	other := baseRecord()
	other.Benchmark = "pacerub"
	if _, err := CompareBenchRecords(baseRecord(), other, 25); err == nil {
		t.Error("benchmark-name mismatch accepted")
	}
	other = baseRecord()
	other.Requests = 17
	if _, err := CompareBenchRecords(baseRecord(), other, 25); err == nil {
		t.Error("workload mismatch accepted")
	}
}

func TestPlacementRecordMapping(t *testing.T) {
	r := PlacementBenchResult{
		Hosts: 7, Requests: 8, Accepted: 5, MeanNs: 1, P50Ns: 2, P99Ns: 3,
		MaxNs: 4, TotalElapsedNs: 9, AllocsPerOp: 6,
	}
	rec := r.Record()
	want := BenchRecord{
		Benchmark: "placeub", Hosts: 7, Requests: 8, Accepted: 5,
		MeanNs: 1, P50Ns: 2, P99Ns: 3, MaxNs: 4, TotalNs: 9, AllocsPerOp: 6,
	}
	if !reflect.DeepEqual(rec, want) {
		t.Errorf("Record() = %+v, want %+v", rec, want)
	}
}

func TestRunPacerBenchSmoke(t *testing.T) {
	rec := RunPacerBench(PacerBenchParams{
		LineRateBps:   10 * gbps,
		RateLimitGbps: 8,
		WireSeconds:   0.001,
		PayloadBytes:  1500,
		Reps:          3,
	})
	if rec.Benchmark != "pacerub" {
		t.Errorf("benchmark = %q", rec.Benchmark)
	}
	if rec.Requests <= 0 || rec.Accepted <= 0 || rec.Accepted > rec.Requests {
		t.Errorf("frame counts: requests=%d accepted=%d", rec.Requests, rec.Accepted)
	}
	if rec.MeanNs <= 0 || rec.MaxNs < rec.P50Ns || rec.TotalNs <= 0 {
		t.Errorf("timing fields: %+v", rec)
	}
	// The host-shaped row paces the same bytes at the same aggregate
	// rate.
	row, ok := rec.Row("pacerub/host4x6")
	if !ok {
		t.Fatalf("no pacerub/host4x6 row: %+v", rec.Rows)
	}
	if row.Accepted != rec.Accepted || row.Requests <= row.Accepted || row.MeanNs <= 0 {
		t.Errorf("host row: %+v (single-destination row accepted %d)", row, rec.Accepted)
	}
}

func TestRunNetsimBenchSmoke(t *testing.T) {
	p := NetsimBenchParams{PacketsPerHost: 50, Reps: 3}
	rec, err := RunNetsimBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Benchmark != "netsimub" || rec.Hosts != 8 {
		t.Errorf("header: %+v", rec)
	}
	if want := p.Reps * p.PacketsPerHost * rec.Hosts; rec.Requests != want {
		t.Errorf("requests = %d, want %d", rec.Requests, want)
	}
	// The permutation paces at line rate, so everything injected is
	// delivered once the fabric drains.
	if rec.Accepted != rec.Requests {
		t.Errorf("delivered %d of %d packets", rec.Accepted, rec.Requests)
	}
	if rec.MeanNs <= 0 {
		t.Errorf("mean = %d", rec.MeanNs)
	}
}
