package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/placement/durable"
)

// walCmd inspects a durable placement store offline: it lists the
// snapshots and WAL segments in a store directory, flags torn or
// corrupt tails, replays the log in memory (the same algorithm recovery
// runs, without modifying a byte on disk), and verifies the recovered
// state's invariants.
//
//	silo-inspect wal STORE_DIR            # summary + verdict
//	silo-inspect wal -records STORE_DIR   # additionally list every record
//	silo-inspect wal -json STORE_DIR      # machine-readable report to stdout
//
// The exit status is 0 when a recovery from the dir would come up in
// normal mode, 1 when it would enter safe mode (missing history) or
// fail invariants — so the subcommand doubles as a fsck for CI and for
// the chaos soak's post-mortem.
func walCmd(args []string) int {
	fs := flag.NewFlagSet("wal", flag.ExitOnError)
	var (
		records = fs.Bool("records", false, "list every WAL record in replay order")
		asJSON  = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	dir := parse(fs, args, "STORE_DIR")

	rep, err := durable.Inspect(dir)
	if err != nil {
		return fail(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			return fail(err)
		}
	} else {
		fmt.Print(rep.Render())
		if *records {
			fmt.Println("records:")
			for _, rec := range rep.Records {
				fmt.Println("  " + durable.RenderRecord(rec))
			}
		}
	}
	if !rep.OK() {
		return 1
	}
	return 0
}
