// Command silo-inspect reads back what the other programs record:
//
//	silo-inspect trace    [flags] <trace.json>      # flight trace (silo-sim -trace)
//	silo-inspect incident [flags] <incidents.json>  # incident report (silo-sim -incidents, the fault drill)
//	silo-inspect wal      [flags] STORE_DIR         # durable placement store (silo-place -wal)
//
// Each subcommand takes its own flags after its name and exactly one
// file or directory. The exit status is 0 on success, 1 when the input
// cannot be read or its verdict fails (a bound-breach incident, a store
// that would not recover in normal mode), and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: silo-inspect trace|incident|wal [flags] FILE|DIR")
		os.Exit(2)
	}
	switch sub, args := os.Args[1], os.Args[2:]; sub {
	case "trace":
		os.Exit(traceCmd(args))
	case "incident":
		os.Exit(incidentCmd(args))
	case "wal":
		os.Exit(walCmd(args))
	default:
		fmt.Fprintf(os.Stderr, "silo-inspect: unknown subcommand %q (want trace, incident or wal)\n", sub)
		os.Exit(2)
	}
}

// parse parses a subcommand's flags and returns its one operand. A
// flag error or an operand count other than one exits 2 with the
// subcommand's usage.
func parse(fs *flag.FlagSet, args []string, operand string) string {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: silo-inspect %s [flags] %s\n", fs.Name(), operand)
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	return fs.Arg(0)
}

// provenance prints the recording run's tool, build and flags.
func provenance(m *obs.RunMeta) {
	if m != nil {
		fmt.Printf("recorded by: %s\n", strings.TrimPrefix(m.CommentLine(), "# run: "))
	}
}

// fail reports err and returns exit status 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
