// Command benchmark is the repository's end-to-end benchmark: six
// workloads driven through the public silo facade and the silo-sim
// command line, end-to-end metrics from an untraced pass and a
// per-layer ledger from a separate traced pass. See README.md in this
// directory for every workload and metric name.
//
//	go run ./benchmark                      all workloads, -reps untraced passes each
//	go run ./benchmark -trace 1             the same, then one traced pass each
//	go run ./benchmark -selfcheck           two sets back to back, compared against the bounds
//	go run ./benchmark -quick               every workload cut to under a second
//	go run ./benchmark --workload dc_silo --seed 11 --seconds 10 --trace 0
//
// The last form runs one workload in this process and ends with one
// JSON line {"correct","attempted","failed","metrics"}; the other
// forms run it once per workload and pass in a child process, so peak
// memory and garbage-collector state are per workload.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in-process and end with one JSON result line")
		seed      = flag.Uint64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "host seconds the measured regions of one run are sized for, together, on the reference container")
		trace     = flag.Int("trace", 0, "1 = traced pass: spans, counters and a CPU profile give the per-layer metrics")
		reps      = flag.Int("reps", 3, "untraced passes per workload when running all workloads")
		quick     = flag.Bool("quick", false, "cut every workload to under a second, one pass, no bounds enforced")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets and compare their medians against the bounds")
		outDir    = flag.String("out", "benchmark/out", "directory for span files, profiles, the built silo-sim and CLI artifacts")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *quick {
		*seconds = quickSeconds
		*reps = 1
	}
	if *seconds <= 0 || *reps < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -reps at least 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, reps: *reps, quick: *quick, outDir: *outDir}
	var err error
	switch {
	case *workload != "":
		err = runChild(cfg, *workload)
	case *selfcheck:
		err = runSelfcheck(cfg)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
