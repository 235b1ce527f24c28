package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// stat summarises one end-to-end metric over the passes of a workload.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// workloadReport is everything one set of runs learned about a
// workload.
type workloadReport struct {
	Name      string                 `json:"name"`
	Op        string                 `json:"op"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]stat        `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// TraceOverheadFrac is the traced region's reference seconds over
	// the median untraced region's, minus one.
	TraceOverheadFrac *float64           `json:"trace_overhead_frac,omitempty"`
	SimDigest         string             `json:"sim_digest,omitempty"`
	Exact             map[string]float64 `json:"exact"`
	Failures          []string           `json:"failures,omitempty"`
	Notes             []string           `json:"notes,omitempty"`
}

// report is the machine-readable document a full run ends with.
type report struct {
	Meta       obs.RunMeta      `json:"meta"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPUModel   string           `json:"cpu_model"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Reps       int              `json:"reps"`
	Quick      bool             `json:"quick,omitempty"`
	Correct    bool             `json:"correct"`
	Workloads  []workloadReport `json:"workloads"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// spawn runs one workload in a child process of this binary and parses
// the two lines it ends with.
func spawn(cfg config, name string, traced bool) (result, detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	args := []string{
		"--workload", name,
		"--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[traced],
		"--out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s: %w", name, err)
	}
	return parseChildOutput(out)
}

// parseChildOutput reads the "detail {...}" line and the final result
// line of a single-workload run.
func parseChildOutput(out []byte) (result, detail, error) {
	var res result
	var det detail
	var last, detLine []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if d, ok := bytes.CutPrefix(line, []byte("detail ")); ok {
			detLine = append([]byte(nil), d...)
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return res, det, err
	}
	if detLine == nil {
		return res, det, fmt.Errorf("child printed no detail line")
	}
	if err := json.Unmarshal(detLine, &det); err != nil {
		return res, det, fmt.Errorf("detail line: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, det, fmt.Errorf("result line: %w", err)
	}
	return res, det, nil
}

// runSet runs every workload cfg.reps times untraced, and once traced
// when asked, each pass in its own process.
func runSet(cfg config) (report, error) {
	meta := obs.CollectRunMeta("benchmark")
	meta.Seed = int64(cfg.seed)
	rep := report{
		Meta: meta, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps, Quick: cfg.quick, Correct: true,
	}
	for i := range workloads {
		def := &workloads[i]
		wr := workloadReport{Name: def.Name, Op: def.op, Correct: true, EndToEnd: map[string]stat{}}
		samples := map[string][]float64{}
		var regionS []float64
		for r := 0; r < cfg.reps; r++ {
			res, det, err := spawn(cfg, def.Name, false)
			if err != nil {
				return rep, err
			}
			wr.merge(res, det)
			regionS = append(regionS, median(det.RegionRefS))
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok {
					return rep, fmt.Errorf("%s: metric %s missing from the untraced pass", def.Name, m.Name)
				}
				samples[m.Name] = append(samples[m.Name], v.Value)
			}
		}
		for _, m := range endToEnd {
			s := sortedCopy(samples[m.Name])
			wr.EndToEnd[m.Name] = stat{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s), Unit: m.Unit}
		}
		if cfg.trace {
			res, det, err := spawn(cfg, def.Name, true)
			if err != nil {
				return rep, err
			}
			wr.merge(res, det)
			wr.PerLayer = res.Metrics
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					return rep, fmt.Errorf("%s: metric %s missing from the traced pass", def.Name, m.Name)
				}
			}
			over := ratio(res.Metrics["trace.measured_ref_s"].Value, median(regionS)) - 1
			wr.TraceOverheadFrac = &over
		}
		rep.Correct = rep.Correct && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
		wr.print(def)
	}
	return rep, nil
}

// merge folds one pass into the workload's report. Every pass of a set
// has the same seed, so what the workload computed must not differ.
func (wr *workloadReport) merge(res result, det detail) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Failures = append(wr.Failures, det.Failures...)
	for _, n := range det.Notes {
		if !slices.Contains(wr.Notes, n) {
			wr.Notes = append(wr.Notes, n)
		}
	}
	if wr.Exact == nil {
		wr.SimDigest, wr.Exact = det.SimDigest, det.Exact
	} else if wr.SimDigest != det.SimDigest || !reflect.DeepEqual(wr.Exact, det.Exact) {
		wr.Failed += res.Attempted
		wr.Failures = append(wr.Failures, fmt.Sprintf("two passes with seed %d disagree: digest %s vs %s, exact %v vs %v",
			det.Seed, wr.SimDigest, det.SimDigest, wr.Exact, det.Exact))
	}
	wr.Correct = wr.Failed == 0
}

func (wr *workloadReport) print(def *workloadDef) {
	fmt.Printf("\n%s  (op: %s)  attempted=%d failed=%d failed_frac=%g\n", wr.Name, wr.Op, wr.Attempted, wr.Failed,
		ratio(float64(wr.Failed), float64(wr.Attempted)))
	for _, m := range endToEnd {
		s := wr.EndToEnd[m.Name]
		fmt.Printf("  %-34s %14.6g %-6s  min %.6g  max %.6g  n=%d\n", m.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
	}
	for _, k := range exactKeys {
		if v := wr.Exact[k]; v != 0 {
			fmt.Printf("  %-34s %14.10g  (exact for this seed)\n", k, v)
		}
	}
	if wr.SimDigest != "" {
		fmt.Printf("  %-34s %14s\n", "sim_digest", wr.SimDigest)
	}
	if wr.PerLayer != nil {
		for _, m := range perLayer {
			v := wr.PerLayer[m.Name]
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
		fmt.Printf("  %-34s %14.6g ratio\n", "trace.overhead_frac", *wr.TraceOverheadFrac)
	}
	for _, f := range wr.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, n := range wr.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// finish prints the document, stores it next to the span files and
// turns failed checks into a non-zero exit.
func (rep report) finish(cfg config) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("report-seed-%d.json", cfg.seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%s\n", b)
	if !rep.Correct {
		return fmt.Errorf("output checks failed; see FAILED lines above")
	}
	return nil
}

func runAll(cfg config) error {
	rep, err := runSet(cfg)
	if err != nil {
		return err
	}
	return rep.finish(cfg)
}

// runSelfcheck runs two sets of the same code back to back and holds
// the benchmark to its own bounds: medians may differ by at most the
// metric's bound, and whatever a workload computed must be identical.
func runSelfcheck(cfg config) error {
	cfg.trace = false
	fmt.Println("selfcheck: set 1")
	a, err := runSet(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\nselfcheck: set 2")
	b, err := runSet(cfg)
	if err != nil {
		return err
	}
	ok := a.Correct && b.Correct
	fmt.Printf("\n%-12s %-14s %14s %14s %9s %7s\n", "workload", "metric", "median 1", "median 2", "diff", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			ma, mb := wa.EndToEnd[m.Name].Median, wb.EndToEnd[m.Name].Median
			diff := ratio(mb-ma, ma)
			verdict := ""
			if math.Abs(diff) > m.Bound && !cfg.quick {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wa.Name, m.Name, ma, mb, 100*diff, 100*m.Bound, verdict)
		}
		if wa.SimDigest != wb.SimDigest || !reflect.DeepEqual(wa.Exact, wb.Exact) {
			fmt.Printf("%-12s exact results differ between the sets: %s %v vs %s %v\n", wa.Name, wa.SimDigest, wa.Exact, wb.SimDigest, wb.Exact)
			ok = false
		} else {
			fmt.Printf("%-12s %-14s identical in both sets\n", wa.Name, "exact results")
		}
	}
	if !ok {
		return fmt.Errorf("selfcheck failed")
	}
	fmt.Println("selfcheck passed")
	return nil
}
