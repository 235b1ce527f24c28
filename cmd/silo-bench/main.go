// Command silo-bench regenerates every table and figure from Silo's
// evaluation (SIGCOMM 2015, §6). Each experiment prints the same rows
// or series the paper reports; EXPERIMENTS.md records paper-vs-measured
// values. Performance is measured by `go run ./benchmark`, not here.
//
// Usage:
//
//	silo-bench -run all
//	silo-bench -run fig12 -duration 0.1
//	silo-bench -run placeub -requests 40000
//	silo-bench -run soak -requests 7500 -soak-report soak.json
//
// Experiments: fig1, table1, fig5, fig10, fig11, fig12 (also emits
// fig13, fig14 and table4), fig15, fig16a, fig16b, placeub (§5's
// 100K-host placement stream; -requests sizes it), besteffort,
// burststress, faultdrill, soak (durable control-plane chaos soak;
// -requests sets its crash/recovery cycles, -duration its wall-clock
// timeout, -soak-report writes the JSON verdict). fig1, fig5, fig11,
// besteffort, burststress and faultdrill run the committed setups
// internal/experiments/scenarios/<name>.json; -seed and -duration, where
// an experiment reads them, replace every line's seed and horizon. A
// flag that none of the selected experiments reads, or a negative
// -requests or -duration, exits 2 before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
)

// outdir, when non-empty, receives CSV series for plotting.
var outdir string

// runMeta stamps every artifact this invocation writes (CSV series,
// incident reports, the soak verdict) with its provenance. Its seed is
// the running experiment's: each one stamps the seed it resolved, its
// default included, and one without a seed leaves 0.
var runMeta obs.RunMeta

// stamp records the seed the running experiment resolved in runMeta.
func stamp(seed uint64) { runMeta.Seed = int64(seed) }

// scenarios loads the committed setup scenarios/<name>.json of
// internal/experiments with -seed and -duration, when set, applied to
// every line, and stamps the seed it resolved.
func scenarios(name string, seed uint64, duration float64) ([]experiments.Scenario, error) {
	lines, err := experiments.Scenarios(name)
	if err != nil {
		return nil, err
	}
	for i := range lines {
		if seed != 0 {
			lines[i].Seed = seed
		}
		if duration > 0 {
			lines[i].HorizonNs = int64(duration * 1e9)
		}
	}
	stamp(lines[0].Seed)
	return lines, nil
}

// writeCSV drops a CSV into outdir if one was requested.
func writeCSV(name string, header []string, rows [][]float64) {
	if outdir == "" {
		return
	}
	if err := stats.WriteCSVFileComment(outdir, name, runMeta.CommentLine(), header, rows); err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", name, err)
	}
}

func main() {
	var (
		run        = flag.String("run", "all", "experiment to run (all|fig1|table1|fig5|fig10|fig11|fig12|fig15|fig16a|fig16b|placeub|besteffort|burststress|faultdrill|soak)")
		duration   = flag.Float64("duration", 0, "override simulated seconds for packet-level experiments; for soak, the wall-clock timeout in seconds")
		requests   = flag.Int("requests", 0, "override request count for placeub; for soak, the number of crash/recovery cycles to run")
		seed       = flag.Uint64("seed", 0, "override RNG seed")
		outFlag    = flag.String("outdir", "", "also write plottable CSV series to this directory")
		soakReport = flag.String("soak-report", "", "for soak: also write the RunMeta-stamped JSON verdict to this path")
	)
	flag.Parse()

	// Each experiment and the flags besides -run that it reads.
	type experiment struct {
		run   func() error
		flags string
	}
	byName := map[string]experiment{
		"fig1":        {func() error { return runFig1(*duration, *seed) }, "duration seed outdir"},
		"table1":      {func() error { return runTable1(*seed) }, "seed outdir"},
		"fig5":        {runFig5, "outdir"},
		"fig10":       {runFig10, "outdir"},
		"fig11":       {func() error { return runFig11(*duration, *seed) }, "duration seed outdir"},
		"fig12":       {func() error { return runFig12(*duration, *seed) }, "duration seed outdir"},
		"fig15":       {func() error { return runFig15(*seed) }, "seed outdir"},
		"fig16a":      {func() error { return runFig16a(*seed) }, "seed outdir"},
		"fig16b":      {func() error { return runFig16b(*seed) }, "seed"},
		"placeub":     {func() error { return runPlaceUB(*requests, *seed) }, "requests seed"},
		"besteffort":  {func() error { return runBestEffort(*duration, *seed) }, "duration seed"},
		"burststress": {runBurstStress, ""},
		"faultdrill":  {func() error { return runFaultDrill(*seed) }, "seed outdir"},
		"soak":        {func() error { return runSoak(*requests, *duration, *seed, *soakReport) }, "requests duration seed soak-report"},
	}
	order := []string{"fig1", "table1", "fig5", "fig10", "fig11", "fig12", "fig15", "fig16a", "fig16b", "placeub", "besteffort", "burststress", "faultdrill"}

	names := strings.Split(*run, ",")
	if *run == "all" {
		names = order
	}
	reads := map[string]bool{"run": true}
	for _, name := range names {
		e, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", name, strings.Join(known, " "))
			os.Exit(2)
		}
		for _, f := range strings.Fields(e.flags) {
			reads[f] = true
		}
	}
	var unread []string
	flag.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "%s: no experiment of -run %s reads it\n", strings.Join(unread, ", "), *run)
		os.Exit(2)
	}
	if *requests < 0 {
		fmt.Fprintf(os.Stderr, "-requests %d: must not be negative\n", *requests)
		os.Exit(2)
	}
	if *duration < 0 {
		fmt.Fprintf(os.Stderr, "-duration %g: must not be negative\n", *duration)
		os.Exit(2)
	}

	outdir = *outFlag
	runMeta = obs.CollectRunMeta("silo-bench")
	if *outFlag != "" {
		// Every CSV and JSON artifact lands in this directory: create it
		// up front, so an uncreatable path (e.g. a file in the way)
		// fails before the run.
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "-outdir: %v\n", err)
			os.Exit(2)
		}
	}

	for _, name := range names {
		fmt.Printf("==== %s ====\n", name)
		stamp(0)
		if err := byName[name].run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runFig1(duration float64, seed uint64) error {
	lines, err := scenarios("fig1", seed, duration)
	if err != nil {
		return err
	}
	fmt.Println("Figure 1 — memcached request latency, alone vs with netperf (plain TCP):")
	runs, err := experiments.RunLines(lines)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderMemcached(runs))
	// CDF detail as in the figure: tenant A's request latencies.
	for i, run := range runs {
		lat := &run.Tenants[0].LatencyUs
		fmt.Printf("\n%s CDF (µs):\n", run.Scenario.Name)
		for _, pt := range lat.CDF(11) {
			fmt.Printf("  %6.1f%%  %10.0f\n", pt.Fraction*100, pt.Value)
		}
		writeCSV(fmt.Sprintf("fig1_cdf_%d.csv", i), []string{"latency_us", "fraction"}, lat.CDFRows(200))
	}
	return nil
}

func runTable1(seed uint64) error {
	if seed == 0 {
		seed = experiments.Table1Seed
	}
	stamp(seed)
	fmt.Println("Table 1 — % messages later than M/B_g + d (Poisson arrivals):")
	r := experiments.RunTable1(seed)
	fmt.Print(r.Render())
	var rows [][]float64
	for i, bm := range r.BurstMultiples {
		for j, bw := range r.BandwidthMultiples {
			rows = append(rows, []float64{float64(bm), bw, r.LatePct[i][j]})
		}
	}
	writeCSV("table1.csv", []string{"burst_msgs", "bw_multiple", "late_pct"}, rows)
	return nil
}

func runFig5() error {
	lines, err := scenarios("fig5", 0, 0)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5 — bandwidth-aware vs Silo placement of 9 x {1 Gbps, 100 KB, 1 ms}:")
	r, err := experiments.RunFigure5(lines[0])
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Println("packet-level check — synchronized worst-case bursts with latency attribution:")
	rs, err := experiments.RunFigure5Sim(lines[0])
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFigure5Sim(rs))
	if outdir != "" && len(rs.Spans) > 0 {
		path := filepath.Join(outdir, "fig5_trace.json")
		if err := obs.WriteTraceFileMeta(path, nil, rs.Ports, rs.Spans); err != nil {
			fmt.Fprintf(os.Stderr, "fig5 trace: %v\n", err)
		} else {
			fmt.Printf("flight trace written to %s (inspect with silo-inspect trace)\n", path)
		}
	}
	fmt.Println("incident check — same workload unpaced under a 350 µs audited bound:")
	ru, err := experiments.RunFigure5Sim(lines[1])
	if err != nil {
		return err
	}
	fmt.Println(ru.Audit.Summary())
	if ru.Incidents != nil {
		fmt.Print(ru.Incidents.Render())
		if outdir != "" {
			ru.Incidents.Meta = &runMeta
			path := filepath.Join(outdir, "fig5_incidents.json")
			if err := ru.Incidents.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "fig5 incidents: %v\n", err)
			} else {
				fmt.Printf("incident report written to %s (inspect with silo-inspect incident)\n", path)
			}
		}
	}
	return nil
}

func runFig10() error {
	fmt.Println("Figure 10 — pacer microbenchmark (throughput split and per-frame cost):")
	rows10 := experiments.RunFigure10()
	fmt.Print(experiments.RenderFigure10(rows10))
	var rows [][]float64
	for _, r := range rows10 {
		rows = append(rows, []float64{r.RateGbps, r.DataGbps, r.VoidGbps, r.PacketsPerSec, r.NsPerPacket,
			r.PctGateAvg, r.PctGateCap, r.MeanTokenWaitUs})
	}
	writeCSV("fig10.csv", []string{"limit_gbps", "data_gbps", "void_gbps", "frames_per_s", "ns_per_frame",
		"gate_avg_pct", "gate_cap_pct", "token_wait_us"}, rows)
	return nil
}

func runFig11(duration float64, seed uint64) error {
	lines, err := scenarios("fig11", seed, duration)
	if err != nil {
		return err
	}
	fmt.Println("Figure 11 — memcached under TCP vs Silo req1-3 (latency, guarantee, throughput):")
	runs, err := experiments.RunLines(lines)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderMemcached(runs))
	var rows [][]float64
	for i, run := range runs {
		rows = append(rows, append([]float64{float64(i)}, experiments.MemcachedRow(run)...))
		writeCSV(fmt.Sprintf("fig11_cdf_%d.csv", i),
			[]string{"latency_us", "fraction"}, run.Tenants[0].LatencyUs.CDFRows(200))
	}
	writeCSV("fig11.csv", []string{"scenario", "p50_us", "p99_us", "p999_us", "guarantee_us", "req_per_s", "bulk_gbps"}, rows)
	return nil
}

func runFig12(duration float64, seed uint64) error {
	p := experiments.DefaultComparisonParams()
	if duration > 0 {
		p.DurationSec = duration
	}
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Println("Figures 12-14 and Table 4 — Silo vs TCP/DCTCP/HULL/Okto/Okto+:")
	runs, err := experiments.RunComparison(p)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderComparison(runs))
	var f12, t4 [][]float64
	for i, run := range runs {
		r := experiments.Figure12Row(run) // p50, p95, p99, max, drops
		f12 = append(f12, []float64{float64(i), r[0], r[1], r[2], r[4]})
		t4 = append(t4, append([]float64{float64(i)}, experiments.Table4Row(run)...))
		scheme := run.Scenario.Scheme
		writeCSV(fmt.Sprintf("fig12_cdf_%s.csv", scheme),
			[]string{"latency_us", "fraction"}, experiments.ClassALatency(run).CDFRows(200))
		writeCSV(fmt.Sprintf("fig13_cdf_%s.csv", scheme),
			[]string{"rto_msg_pct", "fraction"}, experiments.RTOTenantCDF(run).CDFRows(100))
		writeCSV(fmt.Sprintf("fig14_cdf_%s.csv", scheme),
			[]string{"normalized_latency", "fraction"}, experiments.ClassBNormalizedLatency(run).CDFRows(100))
	}
	writeCSV("fig12.csv", []string{"scheme", "p50_us", "p95_us", "p99_us", "drops"}, f12)
	writeCSV("table4.csv", []string{"scheme", "outlier_1x_pct", "outlier_2x_pct", "outlier_8x_pct"}, t4)
	return nil
}

func runFig15(seed uint64) error {
	p := experiments.DefaultScaleParams()
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Println("Figure 15 — admitted requests at 75% / 90% occupancy:")
	pts, err := experiments.RunFigure15(p)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderScalePoints(pts))
	writeScaleCSV("fig15.csv", pts)
	return nil
}

// writeScaleCSV dumps Figure-15/16 points (placer encoded 0=locality,
// 1=oktopus, 2=silo).
func writeScaleCSV(name string, pts []experiments.ScalePoint) {
	placerIdx := map[string]float64{"locality": 0, "oktopus": 1, "silo": 2}
	var rows [][]float64
	for _, pt := range pts {
		rows = append(rows, []float64{placerIdx[pt.Placer], pt.Occupancy,
			100 * pt.Result.AdmittedFrac(), 100 * pt.Result.AvgUtilization,
			float64(pt.Result.CompletedJobs)})
	}
	writeCSV(name, []string{"placer", "occupancy", "admit_pct", "utilization_pct", "jobs"}, rows)
}

func runFig16a(seed uint64) error {
	p := experiments.DefaultScaleParams()
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Println("Figure 16a — network utilization vs occupancy:")
	pts, err := experiments.RunFigure16a(p, []float64{0.2, 0.4, 0.6, 0.75, 0.9})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderScalePoints(pts))
	writeScaleCSV("fig16a.csv", pts)
	return nil
}

func runFig16b(seed uint64) error {
	p := experiments.DefaultScaleParams()
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Println("Figure 16b — network utilization vs Permutation-x (90% occupancy):")
	byX, err := experiments.RunFigure16b(p, []float64{0.5, 0.75, 1, 2, 4})
	if err != nil {
		return err
	}
	xs := make([]float64, 0, len(byX))
	for x := range byX {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Printf("Permutation-%g:\n%s", x, experiments.RenderScalePoints(byX[x]))
	}
	return nil
}

func runBestEffort(duration float64, seed uint64) error {
	lines, err := scenarios("besteffort", seed, duration)
	if err != nil {
		return err
	}
	fmt.Println("§4.4 — best-effort tenants on the low 802.1q class:")
	runs, err := experiments.RunBestEffort(lines)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderBestEffort(runs))
	return nil
}

func runBurstStress() error {
	lines, err := scenarios("burststress", 0, 0)
	if err != nil {
		return err
	}
	fmt.Println("Synchronized-burst stress — Figure 5's principle at runtime (Silo vs Okto+):")
	runs, err := experiments.RunLines(lines)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderBurstStress(runs))
	return nil
}

func runFaultDrill(seed uint64) error {
	lines, err := scenarios("faultdrill", seed, 0)
	if err != nil {
		return err
	}
	fmt.Println("Failure drill — ToR death under admitted load: evacuation, re-admission, delay audit and 1 ms violation windows:")
	run, err := experiments.RunFailureDrill(lines[0])
	if run == nil {
		return err
	}
	fmt.Print(experiments.RenderFailureDrill(run, err))
	var rows [][]float64
	for _, row := range experiments.DrillRows(run) {
		rows = append(rows, row[:7]) // less the conformance
	}
	writeCSV("faultdrill.csv", []string{"tenant", "verdict", "recovery_ms", "messages", "delivered", "violated", "in_fault"}, rows)
	if outdir != "" && run.Incidents != nil {
		run.Incidents.Meta = &runMeta
		path := filepath.Join(outdir, "incidents.json")
		if err := run.Incidents.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "drill incidents: %v\n", err)
		} else {
			fmt.Printf("incident report written to %s (inspect with silo-inspect incident)\n", path)
		}
	}
	if err != nil {
		return fmt.Errorf("placement invariants after recovery: %w", err)
	}
	return nil
}

func runPlaceUB(requests int, seed uint64) error {
	p := experiments.DefaultPlacementBenchParams()
	if requests > 0 {
		p.Requests = requests
	}
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Println("Placement microbenchmark — 100K-host datacenter, mean 49-VM tenants:")
	r, err := experiments.RunPlacementBench(p)
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	return nil
}

// runSoak drives the durable control-plane chaos soak: churn +
// crash-kill + recover for a fixed number of cycles, asserting zero
// invariant violations and zero overbooked ports. cycles (-requests)
// overrides the count and timeout (-duration) the wall-clock seconds
// after which an unfinished soak fails; a non-empty report path
// receives the JSON verdict.
func runSoak(cycles int, timeout float64, seed uint64, report string) error {
	p := experiments.DefaultSoakParams()
	if cycles > 0 {
		p.MaxCrashes = cycles
	}
	if timeout > 0 {
		p.Duration = time.Duration(timeout * float64(time.Second))
	}
	if seed != 0 {
		p.Seed = seed
	}
	stamp(p.Seed)
	fmt.Printf("Chaos soak — durable placement WAL under randomized churn and crash-kills (%d cycles):\n", p.MaxCrashes)
	res, err := experiments.RunSoak(p, &runMeta)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if report != "" {
		if err := res.WriteFile(report); err != nil {
			return fmt.Errorf("soak-report: %w", err)
		}
		fmt.Printf("soak report written to %s\n", report)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("soak found %d violations", len(res.Violations))
	}
	if res.Crashes < p.MaxCrashes {
		return fmt.Errorf("soak timed out after %d of %d cycles (%.0fs)", res.Crashes, p.MaxCrashes, p.Duration.Seconds())
	}
	return nil
}
