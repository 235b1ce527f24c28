package dashboard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/placement/durable"
)

// encodeOracle is the reference series.json: encoding/json over the
// reflective payload, indented the way silo-sim -series writes it.
func encodeOracle(opts Options) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(BuildPayload(opts))
	return buf.Bytes(), err
}

// checkWriter holds WriteJSON to the oracle: the same bytes, or the same
// error text when the payload holds a value JSON cannot carry.
func checkWriter(t *testing.T, what string, opts Options) (failed bool) {
	t.Helper()
	want, werr := encodeOracle(opts)
	var got bytes.Buffer
	gerr := WriteJSON(&got, opts)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: WriteJSON error %v, encoding/json error %v", what, gerr, werr)
			return true
		}
		var uv *json.UnsupportedValueError
		if errors.As(werr, &uv) && !errors.As(gerr, &uv) {
			t.Errorf("%s: WriteJSON error %T, want *json.UnsupportedValueError", what, gerr)
			return true
		}
	case !bytes.Equal(got.Bytes(), want):
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Errorf("%s: WriteJSON differs from encoding/json at byte %d (lengths %d, %d):\n--- got ---\n%s\n--- want ---\n%s",
			what, i, got.Len(), len(want), got.Bytes()[lo:min(i+80, got.Len())], want[lo:min(i+80, len(want))])
		return true
	}
	return false
}

// awkwardRunes are the characters encoding/json escapes (or replaces),
// plus a few it passes through untouched.
var awkwardRunes = []string{`"`, `\`, "<", ">", "&", "\u2028", "\u2029", "\n", "\t", "\b", "\f", "\r", "\x01", "\x1f",
	"\x7f", "\xff", "é", "µ", "a", "z", "_", " ", "/", "{", "="}

func awkwardString(rng *rand.Rand) string {
	n := rng.Intn(6)
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, awkwardRunes[rng.Intn(len(awkwardRunes))]...)
	}
	return string(b)
}

// awkwardFloats are the values whose encoding/json rendering has a
// special case: the 'e' format outside [1e-6, 1e21), negative zero,
// integers past 2^53.
var awkwardFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21,
	123456789.125, 1 << 53, 1<<53 + 2, 1 << 62, -(1 << 60), math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324 * 3}

func awkwardInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Int63n(1000)
	case 1:
		return 1<<53 + rng.Int63n(1<<20)
	case 2:
		return -rng.Int63()
	}
	return rng.Int63()
}

// randomOptions builds a registry of randomly named metrics, captures it
// a random number of times, and wires a random subset of the other
// payload sources. nonFinite lets gauge funcs return NaN or ±Inf.
func randomOptions(rng *rand.Rand, nonFinite bool) Options {
	opts := Options{Title: awkwardString(rng)}
	if rng.Intn(8) == 0 {
		return opts // no rollup: null times and series
	}
	reg := obs.NewRegistry()
	var counters []*obs.Counter
	var gauges []*obs.Gauge
	var hists []*obs.Histogram
	register := func() {
		name := "m" + awkwardString(rng)
		var labels []string
		for i := rng.Intn(3); i > 0; i-- {
			labels = append(labels, awkwardString(rng), awkwardString(rng))
		}
		switch rng.Intn(4) {
		case 0:
			counters = append(counters, reg.Counter(name, "", labels...))
		case 1:
			gauges = append(gauges, reg.Gauge(name, "", labels...))
		case 2:
			v := awkwardFloats[rng.Intn(len(awkwardFloats))]
			if nonFinite && rng.Intn(3) == 0 {
				v = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			reg.GaugeFunc(name, "", func() float64 { return v }, labels...)
		case 3:
			hists = append(hists, reg.Histogram(name, "", labels...))
		}
	}
	for i := rng.Intn(12); i > 0; i-- {
		register()
	}
	capacity := 2 + rng.Intn(8)
	opts.Rollup = timeseries.NewRollup(reg, capacity)
	lateRegistration := rng.Intn(4) == 0
	for i, n := 0, rng.Intn(3*capacity); i < n; i++ {
		for _, c := range counters {
			c.Add(awkwardInt(rng) & (1<<55 - 1))
		}
		for _, g := range gauges {
			g.Set(awkwardInt(rng))
		}
		for _, h := range hists {
			h.Observe(awkwardInt(rng))
		}
		if lateRegistration && rng.Intn(3) == 0 {
			register() // NaN before its first capture, until that ages out
		}
		opts.Rollup.Capture(awkwardInt(rng))
	}
	if rng.Intn(2) == 0 {
		auditor := obs.NewGuaranteeAuditor(reg)
		auditor.Admit(3, 1e9, 15e3, 1e-3)
		rec := slo.NewRecorder(auditor, 1e6)
		for i := int64(1); i <= int64(rng.Intn(6)); i++ {
			auditor.ObserveDelay(3, 100_000)
			if rng.Intn(2) == 0 {
				auditor.ObserveDelay(3, 5e6)
			}
			rec.Close(i*1e6, -1, 0)
		}
		opts.SLO = rec.Evaluate(nil)
	}
	if rng.Intn(2) == 0 {
		opts.Incidents = incident.Correlate(incident.Config{}, incident.Inputs{
			Violations: []obs.ViolationEvent{{TimeNs: 5e6, Tenant: 3, VM: -1, SrcVM: -1, Count: 1, CulpritPort: -1}},
		})
	}
	if rng.Intn(2) == 0 {
		st := &netsim.RuntimeStats{}
		st.Engine.Events = awkwardInt(rng)
		st.Engine.EvHitRate = awkwardFloats[rng.Intn(len(awkwardFloats))]
		opts.Runtime = st
	}
	if rng.Intn(3) == 0 {
		st := &durable.Status{Dir: awkwardString(rng), Seq: uint64(rng.Int63())}
		if rng.Intn(2) == 0 {
			st = nil
		}
		opts.WAL = st
	}
	if rng.Intn(2) == 0 {
		opts.Meta = &obs.RunMeta{Tool: awkwardString(rng), Version: awkwardString(rng), Seed: awkwardInt(rng),
			Flags: awkwardString(rng)}
	}
	return opts
}

// TestWriteJSONMatchesEncoderProperty compares WriteJSON with encoding/json
// over random payloads: metric names and labels that need escapes,
// values on every float-format edge, late registrations (NaN windows),
// gauge funcs returning NaN or ±Inf (the error path), and every optional
// block present or absent. Each run draws a fresh seed.
func TestWriteJSONMatchesEncoderProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	refused := 0
	for i := 0; i < 300; i++ {
		opts := randomOptions(rng, i%3 == 2)
		if checkWriter(t, fmt.Sprintf("seed %d case %d", seed, i), opts) {
			return
		}
		if _, err := encodeOracle(opts); err != nil {
			refused++
		}
	}
	// Both paths must be exercised: bytes compared, and errors compared.
	if refused < 10 || refused > 290 {
		t.Errorf("seed %d: %d of 300 payloads refused; the generator no longer covers both paths", seed, refused)
	}
}

func TestWriteJSONMatchesEncoderFixed(t *testing.T) {
	checkWriter(t, "test sources", testSources(t))
	checkWriter(t, "no sources", Options{})
	checkWriter(t, "title only", Options{Title: "<a&b>\u2028\"\\"})

	reg := obs.NewRegistry()
	reg.Counter("c_total", "")
	empty := timeseries.NewRollup(reg, 4)
	checkWriter(t, "registered, never captured", Options{Rollup: empty})
	checkWriter(t, "no metrics", Options{Rollup: timeseries.NewRollup(obs.NewRegistry(), 4)})

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reg := obs.NewRegistry()
		reg.GaugeFunc("bad", "", func() float64 { return v })
		r := timeseries.NewRollup(reg, 4)
		r.Capture(1)
		if !checkWriter(t, fmt.Sprint("gauge func ", v), Options{Rollup: r}) {
			if err := WriteJSON(&bytes.Buffer{}, Options{Rollup: r}); err == nil {
				t.Errorf("gauge func %v: WriteJSON returned no error", v)
			}
		}
	}
}
