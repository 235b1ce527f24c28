package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	reps    int
	quick   bool
	outDir  string
}

// regions is how many times a run sets the workload up and measures it;
// each measured region is sized for seconds/regions. The traced pass
// and -quick measure one region of that same size.
func (c config) regions() int {
	if c.trace || c.quick {
		return 1
	}
	return regionsPerRun
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail rides on the line before the result: provenance and the
// numbers that are not metrics.
type detail struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Op       string  `json:"op"`
	// Ops is the work of one measured region. RegionRefS is what every
	// region took in reference seconds: its CPU seconds (RegionCPUS)
	// scaled by the reference kernel timed before and after it (RefS
	// holds every timing of the kernel). RegionWallS is the wall time,
	// for comparison; SetupCPUS the CPU seconds of every set-up.
	Ops         int64     `json:"ops"`
	RegionRefS  []float64 `json:"region_ref_s"`
	RegionCPUS  []float64 `json:"region_cpu_s"`
	RegionWallS []float64 `json:"region_wall_s"`
	RefS        []float64 `json:"ref_s"`
	SetupCPUS   []float64 `json:"setup_cpu_s"`
	// LatN latency samples stand behind the region's percentile metrics;
	// LatTailPct is the highest percentile with ten samples beyond it.
	LatN       int     `json:"lat_n"`
	LatTailPct float64 `json:"lat_tail_pct"`
	// SimDigest and Exact are what the workload computed, as opposed to
	// how fast: the same seed and seconds must reproduce them exactly.
	SimDigest string             `json:"sim_digest,omitempty"`
	Exact     map[string]float64 `json:"exact"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

// exactKeys are the layer counters copied into detail.Exact on every
// pass: simulated results and admission decisions, which a change that
// only makes the code faster must leave alone.
var exactKeys = []string{
	"netsim.pkt_hops", "netsim.drops", "transport.msgs", "transport.msg_p99_us",
	"check.late_frac", "placement.accepts", "placement.rejects", "placement.accepted_frac",
	"flowsim.arrivals", "flowsim.jobs_done", "workload.msgs_submitted",
}

// region is one set-up plus one measured run of a workload.
type region struct {
	o *outcome
	// cpuS and wallS are what the measured region took on the CPU clock
	// (the children's, for an external workload) and on the wall;
	// refS is cpuS in reference seconds.
	cpuS, wallS, refS float64
	mem               memDelta
	// cpu is CPU seconds per layer, nil unless profiled.
	cpu map[string]float64
}

// runWorkload sets the workload up and measures it regions() times,
// every time from the same inputs, and returns the metrics of the pass
// asked for: medians over the regions, so a burst of noise from the
// host that spoils one region does not reach the result.
func runWorkload(cfg config, def *workloadDef) (result, detail, error) {
	e := &env{seed: cfg.seed, seconds: cfg.seconds / regionsPerRun, outDir: cfg.outDir}
	if cfg.trace {
		e.tr = newTracer(def.Name)
	}
	det := detail{Workload: def.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Op: def.op, Exact: map[string]float64{}}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, det, err
	}
	if def.prepare != nil {
		sp := e.tr.begin("prepare")
		err := def.prepare(e)
		e.tr.end(sp)
		if err != nil {
			return result{}, det, fmt.Errorf("%s: %w", def.Name, err)
		}
	}

	// An external workload's work is its children's.
	clock := cpuSeconds
	if def.external {
		clock = childCPUSeconds
	}
	timedSetup := func() (instance, error) {
		runtime.GC()
		c0 := clock()
		sp := e.tr.begin("setup")
		inst, err := def.setup(e)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", def.Name, err)
		}
		det.SetupCPUS = append(det.SetupCPUS, clock()-c0)
		return inst, nil
	}
	calibrate := func() float64 {
		ref := refNominalS // -quick is not a measurement
		if !cfg.quick {
			ref = refSeconds()
		}
		det.RefS = append(det.RefS, ref)
		return ref
	}
	before := calibrate()
	if !cfg.trace && !cfg.quick {
		start := time.Now()
		for i := 0; i < minSetupSamples || (i < maxSetupSamples && time.Since(start).Seconds() < setupSampleSeconds); i++ {
			if _, err := timedSetup(); err != nil {
				return result{}, det, err
			}
		}
		before = calibrate()
	}

	var last region
	res := result{Metrics: map[string]metricValue{}}
	for r := 0; r < cfg.regions(); r++ {
		inst, err := timedSetup()
		if err != nil {
			return result{}, det, err
		}
		profile := ""
		if cfg.trace && !def.external {
			profile = filepath.Join(cfg.outDir, "cpu-"+def.Name+".pprof")
		}
		reg, err := measure(e, inst, clock, profile)
		if err != nil {
			return result{}, det, err
		}
		after := calibrate()
		reg.refS = reg.cpuS * refNominalS / ((before + after) / 2)
		before = after
		det.RegionRefS = append(det.RegionRefS, reg.refS)
		det.RegionCPUS = append(det.RegionCPUS, reg.cpuS)
		det.RegionWallS = append(det.RegionWallS, reg.wallS)
		if o, p := reg.o, last.o; p != nil && (o.digest != p.digest || o.ops != p.ops || o.attempted != p.attempted) {
			o.fail(o.attempted, "region %d differs from region %d on the same inputs: digest %s/%s ops %d/%d attempted %d/%d",
				r, r-1, o.digest, p.digest, o.ops, p.ops, o.attempted, p.attempted)
		}
		if reg.o.ops < 1 {
			reg.o.fail(max(reg.o.attempted, 1), "no ops completed")
		}
		res.Attempted += max(reg.o.attempted, 1)
		res.Failed += reg.o.failed
		det.Failures = append(det.Failures, reg.o.failures...)
		last = reg
	}
	o := last.o
	det.Ops, det.SimDigest, det.Notes = o.ops, o.digest, o.notes
	det.LatN, det.LatTailPct = o.latN, tailPercentile(o.latN)
	for _, k := range exactKeys {
		det.Exact[k] = o.layer[k]
	}

	if !cfg.trace {
		vals, err := endToEndValues(det, o)
		if err != nil {
			return result{}, det, err
		}
		for _, m := range endToEnd {
			if vals[m.Name] <= 0 {
				res.Failed = res.Attempted
				det.Failures = append(det.Failures, fmt.Sprintf("metric %s missing or not positive", m.Name))
			}
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else {
		l := layerValues(def, e.tr, last)
		l["check.failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
		known := map[string]bool{}
		for _, m := range perLayer {
			known[m.Name] = true
			res.Metrics[m.Name] = metricValue{l[m.Name], m.Unit}
		}
		for name := range l {
			if !known[name] {
				return result{}, det, fmt.Errorf("%s: layer metric %q is not in the spec", def.Name, name)
			}
		}
		det.SpanFile = filepath.Join(cfg.outDir, "trace-"+def.Name+".json")
		if err := e.tr.writeFile(det.SpanFile); err != nil {
			return result{}, det, err
		}
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, det, nil
}

// measure runs the instance's measured region, timed on clock and under
// a CPU profile written to profile when that is not "", and has the
// instance check its outputs.
func measure(e *env, inst instance, clock func() float64, profile string) (region, error) {
	// Garbage from set-up is not the measured region's.
	runtime.GC()
	var prof *cpuProfile
	if profile != "" {
		var err error
		if prof, err = startCPUProfile(profile); err != nil {
			return region{}, err
		}
	}
	m0 := readMem()
	t0, c0 := time.Now(), clock()
	sp := e.tr.begin("measure")
	inst.run(e)
	e.tr.end(sp)
	reg := region{cpuS: clock() - c0, wallS: time.Since(t0).Seconds(), o: &outcome{layer: map[string]float64{}}}
	reg.mem = memSince(m0, readMem())
	if prof != nil {
		var err error
		if reg.cpu, err = prof.stopAndAttribute(); err != nil {
			return region{}, err
		}
	}
	inst.finish(e, reg.o)
	return reg, nil
}

// endToEndValues are the untraced pass's metrics: medians over the
// run's set-ups and regions, in reference seconds.
func endToEndValues(det detail, o *outcome) (map[string]float64, error) {
	rss := o.childRSSMB
	if rss <= 0 {
		var err error
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"setup_s":       median(det.SetupCPUS) * refNominalS / median(det.RefS),
		"ops_per_cpu_s": ratio(float64(o.ops), median(det.RegionRefS)),
		"peak_rss_mb":   rss,
	}, nil
}

// layerValues completes the traced region's ledger: to the counters the
// workload read it adds CPU per layer, span times and what the Go
// runtime did.
func layerValues(def *workloadDef, tr *tracer, reg region) map[string]float64 {
	l, cpu, mem := reg.o.layer, reg.cpu, reg.mem
	total := 0.0
	for _, s := range cpu {
		total += s
	}
	for _, layer := range cpuLayers {
		l[layer+".cpu_s"] = cpu[layer]
		l[layer+".cpu_frac"] = ratio(cpu[layer], total)
	}
	self, tot := selfSeconds(tr.spans), totalSeconds(tr.spans)
	l["netsim.build_s"] = tot["netsim.build"]
	l["topology.new_s"] = tot["topology.new"]
	l["workload.gen_s"] = self["setup"]
	l["netsim.run_ns_per_hop"] = ratio(reg.refS*1e9, l["netsim.pkt_hops"])
	l["flowsim.run_s"] = tot["flowsim.run"]
	l["pacer.cpu_ns_per_frame"] = ratio(cpu["pacer"]*1e9, l["pacer.data_frames"]+l["pacer.void_frames"])
	l["transport.cpu_ns_per_msg"] = ratio(cpu["transport"]*1e9, l["transport.msgs"])
	if !def.external {
		ops := float64(reg.o.ops)
		l["runtime.allocs_per_op"] = ratio(float64(mem.mallocs), ops)
		l["runtime.alloc_bytes_per_op"] = ratio(float64(mem.bytes), ops)
		l["runtime.gc_cycles"] = float64(mem.gcCycles)
		l["runtime.gc_pause_ms"] = mem.gcPauseMs
		l["runtime.heap_peak_mb"] = mem.heapPeakMB
	}
	l["trace.measured_ref_s"] = reg.refS
	l["trace.wall_over_cpu"] = ratio(reg.wallS, reg.cpuS)
	l["trace.host_speed"] = ratio(reg.cpuS, reg.refS)
	return l
}

// runChild is the single-workload form the driver (and runAll) calls.
func runChild(cfg config, name string) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, det, err := runWorkload(cfg, def)
	if err != nil {
		return err
	}
	printRun(os.Stdout, def, res, det)
	db, err := json.Marshal(det)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", db, rb)
	return nil
}

// printRun lists every metric of one run by name, with its unit.
func printRun(w io.Writer, def *workloadDef, res result, det detail) {
	fmt.Fprintf(w, "workload %s seed=%d seconds=%g traced=%v op=%s ops/region=%d regions=%d region ref=%.3fs cpu=%.3fs wall=%.3fs (medians) reference kernel=%.4fs (nominal %.3fs)\n",
		def.Name, det.Seed, det.Seconds, det.Traced, def.op, det.Ops, len(det.RegionRefS), median(det.RegionRefS), median(det.RegionCPUS), median(det.RegionWallS), median(det.RefS), refNominalS)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if det.LatN > 0 {
		fmt.Fprintf(w, "  latency samples n=%d, highest percentile with 10 samples beyond it: p%g\n", det.LatN, det.LatTailPct)
	}
	if det.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", det.SimDigest)
	}
	for _, f := range det.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, n := range det.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
