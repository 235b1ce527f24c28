package dashboard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

func testPayload() Payload {
	return Payload{
		Title:     "test <run>",
		Incidents: &incident.Report{MergeNs: 2e6, TotalViolations: 3, Incidents: []incident.Incident{{ID: 1, Tenants: []int{3}, Violations: 3}}},
		Runtime:   &netsim.RuntimeStats{Engine: netsim.EngineStats{SimCounters: netsim.SimCounters{Events: 9}, EvHitRate: 0.5}},
		Meta:      &obs.RunMeta{Tool: "test", Seed: 42},
	}
}

// TestWriteJSON reads the written document back: the blocks in order,
// one space per indent level, and the same payload.
func TestWriteJSON(t *testing.T) {
	want := testPayload()
	var b strings.Builder
	if err := WriteJSON(&b, want); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	if !strings.HasPrefix(doc, "{\n \"title\": \"test \\u003crun\\u003e\",\n \"incidents\": {\n  \"") ||
		!strings.HasSuffix(doc, "\n}\n") || strings.Index(doc, `"runtime"`) > strings.Index(doc, `"meta"`) {
		t.Errorf("document layout:\n%s", doc)
	}
	var got Payload
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	b.Reset()
	if err := WriteJSON(&b, Payload{Title: "bare"}); err != nil || b.String() != "{\n \"title\": \"bare\"\n}\n" {
		t.Errorf("a payload without blocks = %q, %v", b.String(), err)
	}
}

type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteJSONErrors: a writer's error comes back, and a float JSON
// cannot carry is refused before anything is written, as json.Marshal
// refused it.
func TestWriteJSONErrors(t *testing.T) {
	p := testPayload()
	if err := WriteJSON(failingWriter{}, p); !errors.Is(err, errDiskFull) {
		t.Errorf("WriteJSON to a failing writer = %v, want %v", err, errDiskFull)
	}
	p.Runtime = &netsim.RuntimeStats{Engine: netsim.EngineStats{EvHitRate: math.NaN()}}
	var b bytes.Buffer
	if err := WriteJSON(&b, p); err == nil || b.Len() != 0 {
		t.Errorf("WriteJSON with a NaN hit rate = %v and %d bytes, want json's error and none", err, b.Len())
	}
}
