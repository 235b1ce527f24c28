// Command silo-incident inspects an incident report written by
// silo-sim -incidents (or by the fault-drill harness): the correlated
// view that joins guarantee violations, SLO burn alerts, introspection
// envelope evidence, and injected faults into root-caused incidents.
//
// Usage:
//
//	silo-sim -duration 0.05 -fault 'tor0@20ms' -incidents run-incidents.json
//	silo-incident run-incidents.json              # incident list
//	silo-incident -id 1 run-incidents.json        # drill-down: causal timeline
//	silo-incident -csv out.csv run-incidents.json # CSV export
//	silo-incident -json - run-incidents.json      # JSON re-export (stdout)
//
// Each incident carries a verdict from the closed taxonomy —
// injected-fault, self-inflicted, neighbor-interference, bound-breach,
// unexplained — and the drill-down shows the causal timeline that
// justifies it. Exit status is 1 when the report contains bound-breach
// incidents (the paper-falsifying case) so scripted drills page.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/incident"
)

func main() {
	var (
		id      = flag.Int("id", 0, "drill into incident N (causal timeline)")
		csvOut  = flag.String("csv", "", "export incidents as CSV to the path ('-' = stdout)")
		jsonOut = flag.String("json", "", "re-export the report as JSON to the path ('-' = stdout)")
		quiet   = flag.Bool("q", false, "suppress the incident list (exports/drill-down only)")

		metricsOut = flag.String("metrics", "", "export report metrics on exit (\"-\" = Prometheus to stdout, *.json = expvar JSON, else Prometheus to file)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: silo-incident [flags] <incidents.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	for flagName, p := range map[string]string{"-csv": *csvOut, "-json": *jsonOut, "-metrics": *metricsOut} {
		if err := obs.ValidateOutputPath(flagName, p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	reg, finishObs := obs.StartCLI(obs.CLIConfig{MetricsPath: *metricsOut})

	rep, err := incident.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg.GaugeFunc("silo_incident_total", "incidents in the loaded report",
		func() float64 { return float64(len(rep.Incidents)) })
	reg.GaugeFunc("silo_incident_violations_total", "per-packet guarantee violations across all incidents",
		func() float64 { return float64(rep.TotalViolations) })
	reg.GaugeFunc("silo_incident_bound_breaches", "paper-falsifying bound-breach incidents",
		func() float64 { return float64(rep.BoundBreaches) })
	byVerdict := rep.ByVerdict()
	for _, v := range incident.Verdicts() {
		n := byVerdict[v]
		reg.GaugeFunc("silo_incident_verdict_total", "incidents by root-cause verdict",
			func() float64 { return float64(n) }, "verdict", v.String())
	}
	if m := rep.Meta; m != nil {
		fmt.Printf("recorded by: %s\n", strings.TrimPrefix(m.CommentLine(), "# run: "))
	}
	if !*quiet {
		fmt.Print(rep.Render())
	}
	if *id != 0 {
		fmt.Print(rep.RenderIncident(*id))
	}
	if *csvOut != "" {
		w := os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteCSV(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := finishObs(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rep.BoundBreaches > 0 {
		os.Exit(1)
	}
}
