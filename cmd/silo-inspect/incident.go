package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/incident"
)

// incidentCmd inspects an incident report written by silo-sim
// -incidents (or by the fault-drill harness): the correlated view that
// joins guarantee violations, per-window culprit ports, introspection
// envelope evidence, and injected faults into root-caused incidents.
//
//	silo-sim -duration 0.05 -fault 't=20ms switch tor0 down; t=30ms up' -incidents run-incidents.json
//	silo-inspect incident run-incidents.json        # incident list
//	silo-inspect incident -id 1 run-incidents.json  # drill-down: causal timeline
//
// Each incident carries a verdict from the closed taxonomy —
// injected-fault, self-inflicted, neighbor-interference, bound-breach,
// unexplained — and the drill-down shows the causal timeline that
// justifies it. Exit status is 1 when the report contains bound-breach
// incidents (the paper-falsifying case) so scripted drills page, and 2
// when -id names an incident the report does not hold.
func incidentCmd(args []string) int {
	fs := flag.NewFlagSet("incident", flag.ExitOnError)
	var (
		id    = fs.Int("id", 0, "drill into incident N (causal timeline)")
		quiet = fs.Bool("q", false, "suppress the incident list (drill-down only)")
	)
	path := parse(fs, args, "<incidents.json>")

	rep, err := incident.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	// An -id the report lacks is a usage error, refused before the
	// report prints.
	if _, ok := rep.Incident(*id); *id != 0 && !ok {
		fmt.Fprint(os.Stderr, rep.RenderIncident(*id)) // "incident N: not found (...)"
		return 2
	}
	provenance(rep.Meta)
	if !*quiet {
		fmt.Print(rep.Render())
	}
	if *id != 0 {
		fmt.Print(rep.RenderIncident(*id))
	}
	if rep.BoundBreaches > 0 {
		return 1
	}
	return 0
}
