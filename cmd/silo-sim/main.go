// Command silo-sim runs a packet-level scenario: a delay-sensitive
// all-to-one tenant sharing a rack-scale network with a bandwidth-
// hungry all-to-all tenant, under a chosen scheme (silo, tcp, dctcp,
// hull, okto, okto+), and prints the message latency distribution.
//
// Usage:
//
//	silo-sim -scheme silo -duration 0.1
//	silo-sim -scheme tcp  -duration 0.1
//	silo-sim -scheme tcp  -series run_series.json     # engine counters and provenance to file
//	silo-sim -scheme silo -fault "t=20ms switch tor0 down; t=30ms up" -incidents incidents.json
//
// SIGINT/SIGTERM stop the simulation cleanly: the -trace, -series,
// -incidents and -introspect outputs are written for the simulated time
// covered so far.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/units"
)

func main() {
	var (
		schemeName   = flag.String("scheme", "silo", "scheme (silo|tcp|dctcp|hull|okto|okto+)")
		duration     = flag.Float64("duration", 0.1, "simulated seconds")
		racks        = flag.Int("racks", 2, "racks")
		servers      = flag.Int("servers", 5, "servers per rack")
		vmsA         = flag.Int("vms-a", 9, "VMs of the delay-sensitive tenant")
		vmsB         = flag.Int("vms-b", 9, "VMs of the bulk tenant")
		seed         = flag.Uint64("seed", 3, "rng seed")
		traceOut     = flag.String("trace", "", "record a flight trace and write it on exit as Chrome trace_event JSON (Perfetto, silo-inspect trace)")
		traceSample  = flag.Int("trace-sample", 1, "flight-trace sampling divisor: record 1 in N packets (rounded up to a power of two)")
		_            = flag.Bool("slo-report", false, "accepted and ignored: the audit line carries each tenant's packets and violations; kept only until the benchmark's sim_obs workload stops passing it (ROADMAP item 1)")
		incidentsOut = flag.String("incidents", "", "close a violation window every simulated millisecond and correlate violations, window culprits, envelope evidence and faults into root-caused incidents; print the report and write it as JSON to this file on exit (pair with -introspect for verdict evidence; inspect with silo-inspect incident)")
		introOut     = flag.String("introspect", "", "attach the introspection plane (per-VM envelope estimators, per-port guarantee margins) and write its snapshot as JSON to this file on exit (join with silo-inspect trace -why)")
		seriesOut    = flag.String("series", "", "write the engine self-telemetry and provenance as JSON to this file on exit")
		faultSched   = flag.String("fault", "", "fault schedule, e.g. \"t=20ms link 14 down; t=30ms up\" or \"t=20ms switch tor0 down\" (targets: link PORT, switch core|podN|torN, host ID; actions: down, up, gray DUR, flap NxDOWN/UP)")
	)
	flag.Parse()

	// Validate output destinations before the run, so a typo'd path
	// fails in milliseconds instead of after the simulation. Stdout
	// carries the rendered reports, so no file flag takes "-".
	for _, f := range []struct{ name, path string }{
		{"-trace", *traceOut}, {"-series", *seriesOut}, {"-introspect", *introOut}, {"-incidents", *incidentsOut},
	} {
		if err := obs.ValidateOutputPath(f.name, f.path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *traceSample < 1 {
		fmt.Fprintf(os.Stderr, "-trace-sample: must be >= 1, got %d\n", *traceSample)
		os.Exit(2)
	}
	if *duration < 0 {
		fmt.Fprintf(os.Stderr, "-duration: must be >= 0, got %g\n", *duration)
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		n    int
	}{{"-racks", *racks}, {"-servers", *servers}} {
		if f.n < 1 {
			fmt.Fprintf(os.Stderr, "%s: must be at least 1, got %d\n", f.name, f.n)
			os.Exit(2)
		}
	}
	// A knob of a plane that is not attached would be silently ignored.
	if *traceOut == "" && flagGiven("trace-sample") {
		fmt.Fprintln(os.Stderr, "-trace-sample requires -trace")
		os.Exit(2)
	}
	// Both tenants span two fault domains, so each needs two VMs.
	for _, f := range []struct {
		name string
		vms  int
	}{{"-vms-a", *vmsA}, {"-vms-b", *vmsB}} {
		if f.vms < 2 {
			fmt.Fprintf(os.Stderr, "%s: must be at least 2 (the tenant spans 2 fault domains), got %d\n", f.name, f.vms)
			os.Exit(2)
		}
	}

	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *faultSched != "" {
		if _, err := faults.ParseSchedule(*faultSched); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Provenance for every artifact this run writes: tool, build
	// revision, and the knobs that determine the output byte for byte.
	meta := obs.CollectRunMeta("silo-sim")
	meta.Seed = int64(*seed)
	meta.Scheme = *schemeName

	const msg = 5000
	gA := tenant.Guarantee{BandwidthBps: 0.25 * units.Gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * units.Gbps}
	gB := tenant.Guarantee{BandwidthBps: 2 * units.Gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * units.Gbps}
	sc := experiments.Scenario{
		Topology: experiments.TenGbE(1, *racks, *servers, 4, 5, 1),
		Scheme:   scheme,
		Seed:     *seed,
		Tenants: []experiments.Tenant{{
			// Tenant A: all-to-one bursts.
			Spec:   tenant.Spec{ID: 1, Name: "oldi", VMs: *vmsA, Guarantee: gA, FaultDomains: 2},
			VMBase: 1000,
			Hose:   experiments.Hose{Kind: experiments.HoseFairShare, Pattern: experiments.PatternAllToOne},
			Driver: experiments.Driver{Kind: experiments.DriverOLDI, MsgBytes: msg},
		}, {
			// Tenant B: continuous shuffle.
			Spec:   tenant.Spec{ID: 2, Name: "shuffle", VMs: *vmsB, Guarantee: gB, FaultDomains: 2},
			VMBase: 2000,
			Hose:   experiments.Hose{Kind: experiments.HoseFairShare, Pattern: experiments.PatternAllToAll},
			Driver: experiments.Driver{Kind: experiments.DriverShuffle, MsgBytes: 1 << 20},
		}},
		HorizonNs: int64(*duration * 1e9),
		DrainNs:   3e9,
		// On the silo scheme every down event triggers Recover 500 µs
		// later and every up event returns the repaired servers to the
		// pool. Recovery here is control-plane only — pacer VMs and
		// transport endpoints are not re-deployed (see
		// experiments.RunFailureDrill for the full data-plane drill).
		Faults: *faultSched,
		// The guarantee audit runs on every invocation: admitted
		// {B, S, d} triples are checked against every delivered packet's
		// NIC-to-NIC delay. The incident plane reads its windows (3 s of
		// drain included) for culprit ports and fault stamps.
		Planes: experiments.Planes{
			Audit:      true,
			Introspect: *introOut != "",
			Windows:    *incidentsOut != "",
			Incidents:  *incidentsOut != "",
		},
	}
	if *traceOut != "" {
		sc.Planes.TraceSampleN = *traceSample
	}

	run, err := experiments.Build(sc, experiments.Env{Meta: &meta})
	if err == nil && len(run.Rejected) > 0 {
		err = run.Rejected[0]
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nw := run.Net

	// SIGINT/SIGTERM stop the event loop between events; everything
	// below still runs (Finish closes the partial window), so partial-run
	// telemetry and traces are flushed and written rather than lost.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	run.Execute(ctx)
	interrupted := ctx.Err() != nil
	stopSignals()
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted at t=%.3f ms simulated; flushing telemetry\n",
			float64(nw.Sim.Now())/1e6)
	}
	run.Finish()

	a := run.Tenants[0]
	lat := &a.LatencyUs
	bound := gA.MessageLatencyBound(msg) * 1e6
	fmt.Printf("scheme=%s  tenantA=%d VMs all-to-one (%d B bursts)  tenantB=%d VMs shuffle\n",
		scheme, *vmsA, msg, *vmsB)
	fmt.Printf("messages=%d completed=%d withRTO=%d drops=%d faultDrops=%d voids=%d\n",
		a.Messages, lat.Len(), a.MessagesRTO, nw.TotalDrops(), nw.TotalFaultDrops(), nw.TotalVoidsDropped())
	fmt.Printf("latency (µs): %s\n", lat.Summary("µs"))
	fmt.Printf("Silo-style guarantee for this message: %.0f µs\n", bound)
	if scheme == core.SchemeSilo {
		if lat.Max() <= bound {
			fmt.Println("=> every message met the guarantee")
		} else {
			fmt.Printf("=> %0.3f%% of messages exceeded the guarantee\n", 100*lat.FractionAbove(bound))
		}
	}
	fmt.Println(run.Audit.Summary())
	if run.Injector != nil {
		fmt.Println("fault injection:")
		for _, ev := range run.Injector.Events() {
			fmt.Printf("  %s\n", ev)
		}
		for _, rep := range run.Recoveries {
			if len(rep.Affected) > 0 {
				fmt.Print(rep.Render())
			}
		}
		if run.Manager != nil {
			if err := run.Manager.VerifyInvariants(); err != nil {
				fmt.Printf("placement invariants after recovery: FAILED: %v\n", err)
			} else {
				fmt.Println("placement invariants after recovery: ok")
			}
		}
	}
	if run.Flight != nil {
		fmt.Println(obs.SummarizeFlight(run.Spans).Render())
		for i, v := range run.SpanViolations {
			if i >= 3 {
				fmt.Printf("... %d more violations in the trace file\n", len(run.SpanViolations)-3)
				break
			}
			fmt.Print(obs.RenderSpan(v, run.Ports))
		}
		if err := obs.WriteTraceFileMeta(*traceOut, &meta, run.Ports, run.Spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("flight trace (1 in %d packets) written to %s\n", run.Flight.SampleN(), *traceOut)
	}
	if run.Snapshot != nil {
		fmt.Println()
		fmt.Print(run.Snapshot.Render())
		if err := run.Snapshot.WriteFile(*introOut); err != nil {
			fmt.Fprintf(os.Stderr, "-introspect: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("introspection snapshot written to %s (join with silo-inspect trace -why)\n", *introOut)
	}
	if run.Incidents != nil {
		fmt.Println()
		fmt.Print(run.Incidents.Render())
		if err := run.Incidents.WriteFile(*incidentsOut); err != nil {
			fmt.Fprintf(os.Stderr, "-incidents: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("incident report written to %s (inspect with silo-inspect incident)\n", *incidentsOut)
	}
	if *seriesOut != "" {
		// The engine's self-telemetry (wheel, overflow-heap and arena
		// pressure) and the run's provenance; the incident report's one
		// home is -incidents.
		f, err := os.Create(*seriesOut)
		if err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			err = enc.Encode(struct {
				Title   string              `json:"title"`
				Runtime netsim.RuntimeStats `json:"runtime"`
				Meta    *obs.RunMeta        `json:"meta"`
			}{"silo-sim " + *schemeName, nw.Sim.RuntimeStats(), &meta})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-series: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("time-series payload written to %s\n", *seriesOut)
	}
}

// flagGiven reports whether the named flag was set on the command line.
func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}
