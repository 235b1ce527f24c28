package dashboard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
)

// buildPayload assembles the series.json document from the wired
// sources through the reader's schema: the oracle WriteJSON is held to.
func buildPayload(opts Options) Payload {
	p := Payload{Title: opts.Title, Incidents: opts.Incidents, Runtime: opts.Runtime, Meta: opts.Meta}
	if s := opts.SLO; s != nil {
		v := &SLOView{Objective: slo.Objective, WindowNs: s.WindowNs, Windows: s.Windows}
		for _, r := range s.Reports {
			v.Tenants = append(v.Tenants, TenantView{TenantReport: r, Points: s.Points(r.ID)})
		}
		for _, ev := range s.Events {
			v.Events = append(v.Events, EventView{Event: ev, Text: ev.Render(opts.Ports)})
		}
		p.SLO = v
	}
	return p
}

// encodePayload is what json.Encoder writes for opts's payload with
// SetIndent("", " ").
func encodePayload(t *testing.T, opts Options) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(buildPayload(opts)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func testSources(t *testing.T) Options {
	t.Helper()
	auditor := obs.NewGuaranteeAuditor()
	auditor.Admit(3, 1e-3)

	rec := slo.NewRecorder(auditor, 1e6)
	for i := 1; i <= 4; i++ {
		for j := 0; j < 10; j++ {
			auditor.ObserveDelivery(3, -1, -1, 0, 100_000)
		}
		auditor.ObserveDelivery(3, -1, -1, 0, 5e6) // one violation per window
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
	if p.Incidents != nil || p.Runtime != nil || p.Meta != nil {
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

// TestAppendIndentedProperty holds obs.AppendIndented over
// json.Marshal's output to what json.Encoder writes with SetIndent("",
// " ") and to json.Indent at widths 1 and 2, with and without a prefix
// of depth levels, byte for byte, on random documents: shallow and
// deeply nested, top-level scalars included.
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
		if got := append(obs.AppendIndented(nil, compact, 0, 1), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: document %d: %s\n--- got ---\n%s--- want ---\n%s", seed, i, compact, got, want.Bytes())
		}
		for _, width := range []int{1, 2} {
			depth := rng.Intn(4)
			want.Reset()
			indent := strings.Repeat(" ", width)
			if err := json.Indent(&want, compact, strings.Repeat(indent, depth), indent); err != nil {
				t.Fatal(err)
			}
			if got := obs.AppendIndented(nil, compact, depth, width); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("seed %d: document %d at depth %d, width %d: %s\n--- got ---\n%s\n--- want ---\n%s",
					seed, i, depth, width, compact, got, want.Bytes())
			}
		}
	}
}

// randPayload draws the sources of one series.json: a recorder run of
// 0, 1 or many windows whose tenants are admitted before the first
// window or mid-run (reading zeros before it), with or without a delay
// bound, some delivering 10^13 messages a window so burn rates take
// encoding/json's e form; fault labels, port names and the title made
// of jsonPieces; and each of incidents, runtime and meta present
// or absent. what names the features the draw covers.
func randPayload(rng *rand.Rand) (opts Options, what []string) {
	opts.Title = randJSONString(rng)
	for n := rng.Intn(6); n > 0; n-- {
		opts.Ports = append(opts.Ports, obs.PortMeta{Name: randJSONString(rng)})
	}
	if rng.Intn(8) > 0 {
		windows := []int{0, 1, 2 + rng.Intn(40)}[rng.Intn(3)]
		auditor := obs.NewGuaranteeAuditor()
		admitAt := make([]int, rng.Intn(5)) // by tenant ID
		for id := range admitAt {
			admitAt[id] = rng.Intn(windows + 1)
		}
		rec := slo.NewRecorder(auditor, 1+rng.Int63n(1e9))
		now := int64(0)
		for w := 0; w <= windows; w++ {
			for id, at := range admitAt {
				if at == w {
					bound := 1e-3
					if rng.Intn(4) == 0 {
						bound = 0 // audited, but no SLO subject
					}
					auditor.Admit(id, bound)
					if w > 0 {
						what = append(what, "mid-run tenant")
					}
				}
			}
			if w == windows {
				break
			}
			for _, ta := range auditor.Tenants() {
				delivered := rng.Int63n(50)
				if rng.Intn(8) == 0 {
					delivered = 1e13
				}
				ta.Packets += delivered
				ta.Violations += rng.Int63n(1 + min(delivered, 3))
			}
			now += 1 + rng.Int63n(1e7)
			rec.Close(now, int32(rng.Intn(len(opts.Ports)+2)-1), rng.Int63n(1e6))
		}
		var faultIn func(sinceNs, untilNs int64) (string, bool)
		if rng.Intn(2) == 0 {
			labels := map[int64]string{}
			faultIn = func(sinceNs, _ int64) (string, bool) {
				if _, ok := labels[sinceNs]; !ok && rng.Intn(3) == 0 {
					labels[sinceNs] = randJSONString(rng)
				}
				l, ok := labels[sinceNs]
				return l, ok
			}
		}
		opts.SLO = rec.Evaluate(faultIn)
		if rng.Intn(8) == 0 { // a report no column backs reads null points
			opts.SLO.Reports = append(opts.SLO.Reports, slo.TenantReport{ID: 5})
			what = append(what, "untracked report")
		}
		if len(opts.SLO.Events) == 0 && rng.Intn(2) == 0 {
			opts.SLO.Events = []slo.Event{}
			what = append(what, "empty events")
		}
		what = append(what, fmt.Sprintf("%d windows", min(windows, 2)))
	}
	if rng.Intn(2) == 0 {
		opts.Incidents = &incident.Report{MergeNs: rng.Int63(), Incidents: []incident.Incident{
			{ID: 1, Reason: randJSONString(rng), Tenants: []int{rng.Intn(9)}, MinMarginBytes: randFloat(rng)},
		}}
		what = append(what, "incidents")
	}
	if rng.Intn(2) == 0 {
		rs := netsim.RuntimeStats{Engine: netsim.EngineStats{
			SimCounters: netsim.SimCounters{Events: rng.Int63(), WheelHWM: rng.Int63n(1e6), PktInUse: -rng.Int63n(9)},
			EvHitRate:   randFloat(rng), PktHitRate: randFloat(rng),
		}}
		opts.Runtime = &rs
	}
	if rng.Intn(2) == 0 {
		opts.Meta = &obs.RunMeta{Tool: randJSONString(rng), Version: "v", Seed: rng.Int63n(3), Flags: randJSONString(rng)}
		what = append(what, "meta")
	}
	return opts, what
}

// randFloat is a finite float from 1e-37 to 1e37, either sign, or zero.
func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return 0
	}
	return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(900+rng.Intn(250))<<52)
}

// TestSeriesWriterMatchesEncoderProperty holds WriteJSON to json.Encoder
// with SetIndent("", " ") over the Payload the same sources build, byte
// for byte, on random sources (see randPayload), and checks the draws
// covered every feature at least once.
func TestSeriesWriterMatchesEncoderProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]int{}
	for i := 0; i < 1_000; i++ {
		opts, what := randPayload(rng)
		want := encodePayload(t, opts)
		var got bytes.Buffer
		if err := WriteJSON(&got, opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: payload %d:\n--- got ---\n%s--- want ---\n%s", seed, i, got.Bytes(), want)
		}
		for _, w := range what {
			seen[w]++
		}
		doc := string(want)
		for feature, present := range map[string]bool{
			"e-form float":          strings.Contains(doc, "e-0") || strings.Contains(doc, "e-1"),
			"violated_during_fault": strings.Contains(doc, `"violated_during_fault"`),
			"fault":                 strings.Contains(doc, `"fault": "`),
			"null events":           strings.Contains(doc, `"events": null`),
			"events":                strings.Contains(doc, `"events": [`),
			"null tenants":          strings.Contains(doc, `"tenants": null`),
		} {
			if present {
				seen[feature]++
			}
		}
	}
	for _, feature := range []string{"mid-run tenant", "0 windows", "1 windows", "2 windows", "empty events", "null events", "events",
		"null tenants", "untracked report", "e-form float", "violated_during_fault", "fault", "incidents", "meta"} {
		if seen[feature] == 0 {
			t.Errorf("seed %d: no payload covered %s: %v", seed, feature, seen)
		}
	}
}

type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteJSONErrors: a writer's error comes back, and a float JSON
// cannot carry is refused before anything is written, as json.Marshal
// refused it.
func TestWriteJSONErrors(t *testing.T) {
	opts := testSources(t)
	if err := WriteJSON(failingWriter{}, opts); !errors.Is(err, errDiskFull) {
		t.Errorf("WriteJSON to a failing writer = %v, want %v", err, errDiskFull)
	}
	opts.Runtime = &netsim.RuntimeStats{Engine: netsim.EngineStats{EvHitRate: math.NaN()}}
	var b bytes.Buffer
	if err := WriteJSON(&b, opts); err == nil || b.Len() != 0 {
		t.Errorf("WriteJSON with a NaN hit rate = %v and %d bytes, want json's error and none", err, b.Len())
	}
}
