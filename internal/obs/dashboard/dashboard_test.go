package dashboard

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/placement/durable"
)

func testSources(t *testing.T) Options {
	t.Helper()
	reg := obs.NewRegistry()
	hwm := reg.Gauge("silo_netsim_queue_hwm_bytes", "", "port", "nic0")
	auditor := obs.NewGuaranteeAuditor(reg)
	auditor.Admit(3, 1e9, 15e3, 1e-3)

	rollup := timeseries.NewRollup(reg, 64)
	rec := slo.NewRecorder(auditor, 1e6)
	for i := 1; i <= 4; i++ {
		hwm.Set(int64(1000 * i))
		for j := 0; j < 10; j++ {
			auditor.ObserveDelay(3, 100_000)
		}
		auditor.ObserveDelay(3, 5e6) // one violation per window
		rollup.Capture(int64(i) * 1e6)
		rec.Close(int64(i)*1e6, -1, 0)
	}
	return Options{Title: "test run", Rollup: rollup, SLO: rec.Evaluate(nil)}
}

func TestBuildPayload(t *testing.T) {
	p := BuildPayload(testSources(t))
	if p.Title != "test run" || p.Captures != 4 || p.NowNs != 4e6 {
		t.Errorf("payload header = %+v", p)
	}
	if len(p.Series) == 0 {
		t.Fatal("no series in payload")
	}
	if p.SLO == nil || len(p.SLO.Tenants) != 1 {
		t.Fatalf("slo view = %+v", p.SLO)
	}
	tv := p.SLO.Tenants[0]
	if tv.ID != 3 || tv.Violated != 4 || len(tv.Points) != 4 {
		t.Errorf("tenant view = %+v", tv)
	}
	if len(p.SLO.Events) == 0 || !strings.Contains(p.SLO.Events[0].Text, "tenant=3") {
		t.Errorf("events = %+v", p.SLO.Events)
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, testSources(t)); err != nil {
		t.Fatal(err)
	}
	var p Payload
	if err := json.Unmarshal([]byte(b.String()), &p); err != nil {
		t.Fatal(err)
	}
	if p.Captures != 4 {
		t.Errorf("round-trip captures = %d", p.Captures)
	}
}

func TestBuildPayloadWALPanel(t *testing.T) {
	opts := testSources(t)
	st := &durable.Status{
		Dir: "/tmp/store", Segment: "wal-0000000000000001.log",
		Seq: 42, WALSizeBytes: 6720,
		Recovery: &durable.RecoveryInfo{SnapshotSeq: 30, ReplayedRecords: 12, TornTail: true, TruncatedBytes: 9},
	}
	opts.WAL = st
	p := BuildPayload(opts)
	if p.WAL == nil || p.WAL.Seq != 42 || p.WAL.Recovery.ReplayedRecords != 12 {
		t.Fatalf("wal view = %+v", p.WAL)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"wal"`, `"seq":42`, `"torn_tail":true`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("payload JSON missing %s:\n%s", want, b)
		}
	}
	// A nil status keeps the block absent.
	opts.WAL = nil
	if p := BuildPayload(opts); p.WAL != nil {
		t.Fatal("nil status should omit the block")
	}
}
