// Command silo-incident inspects an incident report written by
// silo-sim -incidents (or by the fault-drill harness): the correlated
// view that joins guarantee violations, SLO burn alerts, introspection
// envelope evidence, and injected faults into root-caused incidents.
//
// Usage:
//
//	silo-sim -duration 0.05 -fault 't=20ms switch tor0 down; t=30ms up' -incidents run-incidents.json
//	silo-incident run-incidents.json        # incident list
//	silo-incident -id 1 run-incidents.json  # drill-down: causal timeline
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

	"repro/internal/obs/incident"
)

func main() {
	var (
		id    = flag.Int("id", 0, "drill into incident N (causal timeline)")
		quiet = flag.Bool("q", false, "suppress the incident list (drill-down only)")
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

	rep, err := incident.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
	if rep.BoundBreaches > 0 {
		os.Exit(1)
	}
}
