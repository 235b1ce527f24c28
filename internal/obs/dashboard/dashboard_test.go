package dashboard

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/placement/durable"
)

func testSources(t *testing.T) Options {
	t.Helper()
	auditor := obs.NewGuaranteeAuditor(obs.NewRegistry())
	auditor.Admit(3, 1e9, 15e3, 1e-3)

	rec := slo.NewRecorder(auditor, 1e6)
	for i := 1; i <= 4; i++ {
		for j := 0; j < 10; j++ {
			auditor.ObserveDelay(3, 100_000)
		}
		auditor.ObserveDelay(3, 5e6) // one violation per window
		rec.Close(int64(i)*1e6, -1, 0)
	}
	return Options{Title: "test run", SLO: rec.Evaluate(nil)}
}

func TestBuildPayload(t *testing.T) {
	p := buildPayload(testSources(t))
	if p.Title != "test run" {
		t.Errorf("payload title = %q", p.Title)
	}
	if p.SLO == nil || p.SLO.Windows != 4 || len(p.SLO.Tenants) != 1 {
		t.Fatalf("slo view = %+v", p.SLO)
	}
	tv := p.SLO.Tenants[0]
	if tv.ID != 3 || tv.Violated != 4 || len(tv.Points) != 4 {
		t.Errorf("tenant view = %+v", tv)
	}
	if len(p.SLO.Events) == 0 || !strings.Contains(p.SLO.Events[0].Text, "tenant=3") {
		t.Errorf("events = %+v", p.SLO.Events)
	}
	if p.Incidents != nil || p.Runtime != nil || p.WAL != nil || p.Meta != nil {
		t.Errorf("unwired sources present in the payload: %+v", p)
	}
}

// TestWriteJSON reads the written document back: the blocks in order,
// one space per indent level, and the same payload.
func TestWriteJSON(t *testing.T) {
	opts := testSources(t)
	opts.Meta = &obs.RunMeta{Tool: "test", Seed: 42}
	var b strings.Builder
	if err := WriteJSON(&b, opts); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	if !strings.HasPrefix(doc, "{\n \"title\": \"test run\",\n \"slo\": {\n  \"objective\": 0.999,") ||
		!strings.HasSuffix(doc, "\n}\n") || strings.Index(doc, `"slo"`) > strings.Index(doc, `"meta"`) {
		t.Errorf("document layout:\n%s", doc)
	}
	var p Payload
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	if p.SLO == nil || len(p.SLO.Tenants) != 1 || len(p.SLO.Tenants[0].Points) != 4 || p.Meta == nil || p.Meta.Seed != 42 {
		t.Errorf("round trip = %+v", p)
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
	p := buildPayload(opts)
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
	if p := buildPayload(opts); p.WAL != nil {
		t.Fatal("nil status should omit the block")
	}
}
