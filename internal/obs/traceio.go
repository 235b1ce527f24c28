package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Trace file I/O. Two formats, selected by extension:
//
//   - *.json: Chrome trace_event JSON, loadable in Perfetto /
//     chrome://tracing. Each span becomes one track (tid = packet ID)
//     of "X" complete events — pacing, then queue/ser/prop per hop —
//     with the machine-readable span records embedded verbatim under
//     otherData.silo, so silo-trace round-trips the full recording
//     (per-hop data included) from the same file Perfetto renders.
//   - *.csv: one compact numeric row per span via internal/stats —
//     plottable, loses per-hop detail beyond the worst port.

// siloTraceData is the machine-readable payload embedded in the Chrome
// trace's otherData block.
type siloTraceData struct {
	// Meta is the recording invocation's provenance (tool, version,
	// seed, flags); nil for recordings made before it existed.
	Meta  *RunMeta     `json:"meta,omitempty"`
	Ports []PortMeta   `json:"ports"`
	Spans []FlightSpan `json:"spans"`
}

// WriteChromeTrace writes spans as Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, ports []PortMeta, spans []FlightSpan) error {
	return writeChromeTrace(w, nil, ports, spans)
}

// writeChromeTrace streams the document
//
//	{"traceEvents":[...],"displayTimeUnit":"ns",
//	 "otherData":{"silo":{"meta":{...},"ports":[...],"spans":[...]}}}
//
// one span at a time through a single scratch buffer: a pacing event
// and up to three events per hop in the first pass, the span records
// themselves in the second. The bytes are the ones encoding/json
// produces for the same values — struct field order, omitempty, args
// keys sorted as a map's are, HTML-safe string escapes, its float
// format, Encoder's trailing newline — which the oracle test and
// testdata/trace.golden.json pin.
func writeChromeTrace(w io.Writer, meta *RunMeta, ports []PortMeta, spans []FlightSpan) error {
	// One meta and a few dozen ports stay with the reflective encoder.
	var metaJSON []byte
	if meta != nil {
		var err error
		if metaJSON, err = json.Marshal(meta); err != nil {
			return err
		}
	}
	portsJSON, err := json.Marshal(ports)
	if err != nil {
		return err
	}

	bw := bufio.NewWriterSize(w, 64<<10) // keeps the first write error for Flush
	names := eventNames{ports: ports, byPort: make([][3]string, len(ports))}
	b := make([]byte, 0, 4<<10)

	b = append(b, `{"traceEvents":`...)
	sep := byte('[') // ',' once the array has an element
	for i := range spans {
		s := &spans[i]
		pid := int64(s.TenantID)
		if s.EnqueueNs >= 0 && s.PacingNs > 0 {
			b = appendEventHead(b, sep, `"pacing"`, "pacer", s.EnqueueNs, s.PacingNs, pid, s.Pkt)
			sep = ','
			b = appendInt(b, `,"args":{"batch_wait_ns":`, s.BatchWaitNs)
			b = append(b, `,"gate":`...)
			b = append(b, names.gate(s.Gate)...)
			b = appendUint(b, `,"pkt":`, s.Pkt)
			b = appendInt(b, `,"token_wait_ns":`, s.TokenWaitNs)
			b = append(b, "}}"...)
		}
		for j := range s.Hops {
			h := &s.Hops[j]
			if h.QueueNs > 0 {
				b = appendEventHead(b, sep, names.port(nameQueue, h.Port), "net", h.ArriveNs, h.QueueNs, pid, s.Pkt)
				sep = ','
				b = appendInt(b, `,"args":{"occupied_bytes":`, h.OccupiedBytes)
				b = appendUint(b, `,"pkt":`, s.Pkt)
				b = append(b, "}}"...)
			}
			if h.TxStartNs >= 0 {
				b = appendEventHead(b, sep, names.port(nameSer, h.Port), "net", h.TxStartNs, h.SerNs, pid, s.Pkt)
				sep = ','
				b = appendInt(b, `,"args":{"bytes":`, s.Bytes)
				b = appendInt(b, `,"dst_vm":`, int64(s.DstVM))
				b = appendUint(b, `,"pkt":`, s.Pkt)
				b = appendInt(b, `,"src_vm":`, int64(s.SrcVM))
				b = append(b, "}}"...)
				if h.PropNs > 0 {
					b = appendEventHead(b, sep, names.port(nameProp, h.Port), "net", h.TxStartNs+h.SerNs, h.PropNs, pid, s.Pkt)
					b = append(b, '}')
				}
			}
		}
		bw.Write(b)
		b = b[:0]
	}
	if sep == '[' {
		b = append(b, "null"...) // no events: a nil slice to encoding/json
	} else {
		b = append(b, ']')
	}

	b = append(b, `,"displayTimeUnit":"ns","otherData":{"silo":{`...)
	if metaJSON != nil {
		b = append(b, `"meta":`...)
		b = append(b, metaJSON...)
		b = append(b, ',')
	}
	b = append(b, `"ports":`...)
	b = append(b, portsJSON...)
	b = append(b, `,"spans":`...)
	if spans == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSpan(b, &spans[i])
			bw.Write(b)
			b = b[:0]
		}
		b = append(b, ']')
	}
	b = append(b, "}}}\n"...)
	bw.Write(b)
	return bw.Flush()
}

// appendEventHead appends sep and one "X" trace_event up to its tid;
// the caller adds args, if any, and the closing brace. name is a JSON
// string literal; ts and dur are microseconds (fractional — ns
// precision survives the float), dur omitted at 0.
func appendEventHead(b []byte, sep byte, name, cat string, tsNs, durNs, pid int64, tid uint64) []byte {
	b = append(b, sep)
	b = append(b, `{"name":`...)
	b = append(b, name...)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ph":"X","ts":`...)
	b = appendJSONFloat(b, float64(tsNs)/1e3)
	if durNs != 0 {
		b = append(b, `,"dur":`...)
		b = appendJSONFloat(b, float64(durNs)/1e3)
	}
	b = appendInt(b, `,"pid":`, pid)
	return appendUint(b, `,"tid":`, tid)
}

// appendSpan appends one FlightSpan as encoding/json renders the
// struct: every field in declaration order, hops omitted when empty.
func appendSpan(b []byte, s *FlightSpan) []byte {
	b = appendUint(b, `{"pkt":`, s.Pkt)
	b = appendInt(b, `,"src_vm":`, int64(s.SrcVM))
	b = appendInt(b, `,"dst_vm":`, int64(s.DstVM))
	b = appendInt(b, `,"bytes":`, s.Bytes)
	b = appendInt(b, `,"enqueue_ns":`, s.EnqueueNs)
	b = appendInt(b, `,"admit_ns":`, s.AdmitNs)
	b = appendUint(b, `,"gate":`, uint64(s.Gate))
	b = appendInt(b, `,"wire_ns":`, s.WireNs)
	b = appendInt(b, `,"deliver_ns":`, s.DeliverNs)
	for i := range s.Hops {
		h := &s.Hops[i]
		if i == 0 {
			b = append(b, `,"hops":[`...)
		} else {
			b = append(b, ',')
		}
		b = appendInt(b, `{"port":`, int64(h.Port))
		b = appendInt(b, `,"arrive_ns":`, h.ArriveNs)
		b = appendInt(b, `,"tx_start_ns":`, h.TxStartNs)
		b = appendInt(b, `,"ser_ns":`, h.SerNs)
		b = appendInt(b, `,"prop_ns":`, h.PropNs)
		b = appendInt(b, `,"queue_ns":`, h.QueueNs)
		b = appendInt(b, `,"occupied_bytes":`, h.OccupiedBytes)
		b = append(b, '}')
	}
	if len(s.Hops) > 0 {
		b = append(b, ']')
	}
	b = appendInt(b, `,"token_wait_ns":`, s.TokenWaitNs)
	b = appendInt(b, `,"batch_wait_ns":`, s.BatchWaitNs)
	b = appendInt(b, `,"pacing_ns":`, s.PacingNs)
	b = appendInt(b, `,"queue_ns":`, s.QueueNs)
	b = appendInt(b, `,"ser_ns":`, s.SerNs)
	b = appendInt(b, `,"prop_ns":`, s.PropNs)
	b = appendInt(b, `,"total_ns":`, s.TotalNs)
	b = appendInt(b, `,"worst_port":`, int64(s.WorstPort))
	b = appendInt(b, `,"worst_queue_ns":`, s.WorstQueueNs)
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, s.Complete)
	b = appendInt(b, `,"tenant_id":`, int64(s.TenantID))
	b = appendInt(b, `,"bound_ns":`, s.BoundNs)
	return append(b, '}')
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendJSONFloat formats a finite f as encoding/json does: shortest
// 'f', or 'e' with a one-digit exponent unpadded outside [1e-6, 1e21).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b
}

// Event-name prefixes, indexing eventNames.byPort.
const (
	nameQueue = iota
	nameSer
	nameProp
)

var namePrefix = [3]string{"queue ", "ser ", "prop "}

// eventNames hands out port-event and gate names as JSON string
// literals, escaped on first use instead of once per event.
type eventNames struct {
	ports  []PortMeta
	byPort [][3]string // by port ID, then prefix
	gates  [256]string
}

func (n *eventNames) port(prefix int, id int32) string {
	if int(id) < 0 || int(id) >= len(n.byPort) {
		return quoteJSON(namePrefix[prefix] + PortName(n.ports, id))
	}
	q := &n.byPort[id][prefix]
	if *q == "" {
		*q = quoteJSON(namePrefix[prefix] + PortName(n.ports, id))
	}
	return *q
}

func (n *eventNames) gate(g uint8) string {
	if n.gates[g] == "" {
		n.gates[g] = quoteJSON(GateName(g))
	}
	return n.gates[g]
}

// quoteJSON renders s as encoding/json does inside a document:
// HTML-safe, invalid UTF-8 replaced.
func quoteJSON(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// spansCSVHeader defines the compact span CSV schema.
var spansCSVHeader = []string{
	"pkt", "tenant", "src_vm", "dst_vm", "bytes", "gate",
	"enqueue_ns", "admit_ns", "wire_ns", "deliver_ns",
	"token_wait_ns", "batch_wait_ns", "pacing_ns",
	"queue_ns", "ser_ns", "prop_ns", "total_ns",
	"hops", "worst_port", "worst_queue_ns", "bound_ns", "complete",
}

// WriteSpansCSV writes one compact numeric row per span.
func WriteSpansCSV(w io.Writer, spans []FlightSpan) error {
	return writeSpansCSV(w, nil, spans)
}

func writeSpansCSV(w io.Writer, meta *RunMeta, spans []FlightSpan) error {
	c := stats.NewCSVWriter(w, meta.CommentLine(), spansCSVHeader)
	for i := range spans {
		s := &spans[i]
		complete := 0.0
		if s.Complete {
			complete = 1
		}
		c.Row(
			float64(s.Pkt), float64(s.TenantID), float64(s.SrcVM), float64(s.DstVM),
			float64(s.Bytes), float64(s.Gate),
			float64(s.EnqueueNs), float64(s.AdmitNs), float64(s.WireNs), float64(s.DeliverNs),
			float64(s.TokenWaitNs), float64(s.BatchWaitNs), float64(s.PacingNs),
			float64(s.QueueNs), float64(s.SerNs), float64(s.PropNs), float64(s.TotalNs),
			float64(len(s.Hops)), float64(s.WorstPort), float64(s.WorstQueueNs),
			float64(s.BoundNs), complete,
		)
	}
	return c.Flush()
}

// WriteTraceFile writes a recording to path: *.csv gets the compact
// span CSV, anything else the Chrome trace JSON.
func WriteTraceFile(path string, ports []PortMeta, spans []FlightSpan) error {
	return WriteTraceFileMeta(path, nil, ports, spans)
}

// WriteTraceFileMeta is WriteTraceFile with run provenance stamped on
// the recording: a "#" comment line on CSV, otherData.silo.meta on the
// Chrome JSON (round-tripped by ReadTraceFileMeta).
func WriteTraceFileMeta(path string, meta *RunMeta, ports []PortMeta, spans []FlightSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".csv") {
		werr = writeSpansCSV(f, meta, spans)
	} else {
		werr = writeChromeTrace(f, meta, ports, spans)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadTraceFile loads a recording written by WriteTraceFile. JSON
// recordings round-trip exactly (per-hop detail included); CSV
// recordings reconstruct span-level attribution without hop lists.
func ReadTraceFile(path string) ([]PortMeta, []FlightSpan, error) {
	_, ports, spans, err := ReadTraceFileMeta(path)
	return ports, spans, err
}

// ReadTraceFileMeta is ReadTraceFile plus the run provenance stamped
// at write time — nil for CSV recordings (the "#" comment survives on
// disk but is not parsed back) and for pre-provenance recordings.
func ReadTraceFileMeta(path string) (*RunMeta, []PortMeta, []FlightSpan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if strings.HasSuffix(path, ".csv") {
		spans, err := parseSpansCSV(string(b))
		return nil, nil, spans, err
	}
	// Declaring only otherData lets encoding/json skip the traceEvents
	// array — Perfetto's rendering of the same spans — without
	// building it.
	var file struct {
		OtherData struct {
			Silo *siloTraceData `json:"silo"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: not a silo trace: %w", path, err)
	}
	data := file.OtherData.Silo
	if data == nil {
		return nil, nil, nil, fmt.Errorf("%s: no otherData.silo span payload (not written by silo-sim?)", path)
	}
	return data.Meta, data.Ports, data.Spans, nil
}

// parseSpansCSV rebuilds spans from the compact CSV. Leading "#"
// comment lines (run provenance) are skipped.
func parseSpansCSV(text string) ([]FlightSpan, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for len(lines) > 0 && strings.HasPrefix(strings.TrimSpace(lines[0]), "#") {
		lines = lines[1:]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty CSV")
	}
	header := strings.Split(strings.TrimSpace(lines[0]), ",")
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	for _, want := range []string{"pkt", "total_ns", "complete"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("not a silo span CSV: missing column %q", want)
		}
	}
	get := func(fields []string, name string) float64 {
		i, ok := col[name]
		if !ok || i >= len(fields) {
			return 0
		}
		var v float64
		fmt.Sscanf(fields[i], "%g", &v)
		return v
	}
	spans := make([]FlightSpan, 0, len(lines)-1)
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		spans = append(spans, FlightSpan{
			Pkt:      uint64(get(f, "pkt")),
			TenantID: int32(get(f, "tenant")),
			SrcVM:    int32(get(f, "src_vm")), DstVM: int32(get(f, "dst_vm")),
			Bytes: int64(get(f, "bytes")), Gate: uint8(get(f, "gate")),
			EnqueueNs: int64(get(f, "enqueue_ns")), AdmitNs: int64(get(f, "admit_ns")),
			WireNs: int64(get(f, "wire_ns")), DeliverNs: int64(get(f, "deliver_ns")),
			TokenWaitNs: int64(get(f, "token_wait_ns")), BatchWaitNs: int64(get(f, "batch_wait_ns")),
			PacingNs: int64(get(f, "pacing_ns")),
			QueueNs:  int64(get(f, "queue_ns")), SerNs: int64(get(f, "ser_ns")),
			PropNs: int64(get(f, "prop_ns")), TotalNs: int64(get(f, "total_ns")),
			WorstPort:    int32(get(f, "worst_port")),
			WorstQueueNs: int64(get(f, "worst_queue_ns")),
			BoundNs:      int64(get(f, "bound_ns")),
			Complete:     get(f, "complete") != 0,
		})
	}
	return spans, nil
}
