package dashboard

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/placement/durable"
)

func testSources(t *testing.T) Options {
	t.Helper()
	auditor := obs.NewGuaranteeAuditor()
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

// jsonPieces are the string fragments encoding/json escapes or passes
// through in ways an indenter could trip on: quotes and backslashes
// (escaped quotes end no string), JSON punctuation inside strings, the
// HTML-escaped <>&, control bytes, U+2028/U+2029, invalid UTF-8 and
// multi-byte runes.
var jsonPieces = []string{`"`, `\`, `\"`, `"\`, "{", "}", "[", "]", ",", ":", "{}", "[]", "<", ">", "&",
	"\n", "\t", "\x00", "\x1f", "\u2028", "\u2029", "\xff", "\xe2\x80", "é", "µ", "\U0001F600", "a", " ", "/"}

func randJSONString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		b.WriteString(jsonPieces[rng.Intn(len(jsonPieces))])
	}
	return b.String()
}

// randJSONValue draws a value of up to depth levels of objects and
// arrays, empty ones included, around strings, numbers, booleans, null
// and a raw message json.Marshal must compact.
func randJSONValue(rng *rand.Rand, depth int) any {
	k := rng.Intn(10)
	if depth <= 0 {
		k = 4 + rng.Intn(6)
	}
	switch k {
	case 0, 1:
		m := map[string]any{}
		for n := rng.Intn(5); n > 0; n-- {
			m[randJSONString(rng)] = randJSONValue(rng, depth-1)
		}
		return m
	case 2, 3:
		a := []any{}
		for n := rng.Intn(5); n > 0; n-- {
			a = append(a, randJSONValue(rng, depth-1))
		}
		return a
	case 4:
		return randJSONString(rng)
	case 5:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(900+rng.Intn(250))<<52) // 1e-37 to 1e37, either sign
	case 6:
		return rng.Int63() >> uint(rng.Intn(63)) * int64(1-2*rng.Intn(2))
	case 7:
		return rng.Intn(2) == 0
	case 8:
		return nil
	default:
		return json.RawMessage(" { \"raw\" : [ 1 , { } , [ ] , \"a b\" ] } ")
	}
}

// TestAppendIndentedProperty holds appendIndented over json.Marshal's
// output to what json.Encoder writes with SetIndent("", " "), byte for
// byte, on random documents: shallow and deeply nested, top-level
// scalars included.
func TestAppendIndentedProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10_000; i++ {
		v := randJSONValue(rng, rng.Intn(6))
		if i%100 == 0 { // 40 levels deep, with siblings on the way down
			for range 40 {
				if rng.Intn(2) == 0 {
					v = map[string]any{randJSONString(rng): v, "": []any{}}
				} else {
					v = []any{randJSONValue(rng, 1), v, map[string]any{}}
				}
			}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendIndented(nil, compact); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: document %d: %s\n--- got ---\n%s--- want ---\n%s", seed, i, compact, got, want.Bytes())
		}
	}
}
