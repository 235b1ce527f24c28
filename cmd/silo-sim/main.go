// Command silo-sim runs a packet-level scenario: a delay-sensitive
// all-to-one tenant sharing a rack-scale network with a bandwidth-
// hungry all-to-all tenant, under a chosen scheme (silo, tcp, dctcp,
// hull, okto, okto+), and prints the message latency distribution.
//
// Usage:
//
//	silo-sim -scheme silo -duration 0.1
//	silo-sim -scheme tcp  -duration 0.1
//	silo-sim -scheme silo -http :8080 -slo-report     # live dashboard
//	silo-sim -scheme tcp  -series run_series.json     # dashboard payload to file
//	silo-sim -scheme silo -fault "t=20ms switch tor0 down; t=30ms up" -slo-report
//
// SIGINT/SIGTERM stop the simulation cleanly: telemetry is flushed and
// the -metrics/-trace/-series outputs are written for the simulated
// time covered so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/dashboard"
	obsruntime "repro/internal/obs/runtime"
	"repro/internal/placement/durable"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/workload"
)

const gbps = 1e9 / 8

func main() {
	var (
		schemeName   = flag.String("scheme", "silo", "scheme (silo|tcp|dctcp|hull|okto|okto+)")
		duration     = flag.Float64("duration", 0.1, "simulated seconds")
		racks        = flag.Int("racks", 2, "racks")
		servers      = flag.Int("servers", 5, "servers per rack")
		vmsA         = flag.Int("vms-a", 9, "VMs of the delay-sensitive tenant")
		vmsB         = flag.Int("vms-b", 9, "VMs of the bulk tenant")
		seed         = flag.Uint64("seed", 3, "rng seed")
		metricsOut   = flag.String("metrics", "", "export metrics on exit (\"-\" = Prometheus to stdout, *.json = expvar JSON, else Prometheus to file)")
		httpAddr     = flag.String("http", "", "serve the live dashboard, /metrics and /debug/vars on this address during the run")
		pprofOn      = flag.Bool("pprof", false, "additionally expose /debug/pprof on the -http address")
		traceOut     = flag.String("trace", "", "record a flight trace and write it on exit (*.json = Chrome trace_event for Perfetto + silo-trace, *.csv = compact spans)")
		traceSample  = flag.Int("trace-sample", 1, "flight-trace sampling divisor: record 1 in N packets (rounded up to a power of two)")
		sloReport    = flag.Bool("slo-report", false, "print the per-tenant SLO conformance and burn-rate report after the run")
		incidentsOut = flag.String("incidents", "", "correlate violations, SLO burns, envelope evidence and faults into root-caused incidents; print the report and write it as JSON to this file on exit (pair with -introspect for verdict evidence; inspect with silo-incident)")
		introOut     = flag.String("introspect", "", "attach the introspection plane (per-VM envelope estimators, per-port guarantee margins) and write its snapshot as JSON to this file on exit (join with silo-trace -why)")
		seriesOut    = flag.String("series", "", "write the dashboard time-series payload (metrics rollup + SLO state) as JSON to this file on exit")
		windowMs     = flag.Float64("window", 1, "SLO / time-series window in simulated milliseconds")
		faultSched   = flag.String("fault", "", "fault schedule, e.g. \"t=20ms link 14 down; t=30ms up\" or \"t=20ms switch tor0 down\" (targets: link PORT, switch core|podN|torN, host ID; actions: down, up, gray DUR, flap NxDOWN/UP)")
		faultDetect  = flag.Duration("fault-detect", 500*time.Microsecond, "control-loop detection delay between an injected fault and the placement Recover call (silo scheme only)")
		walDir       = flag.String("wal", "", "durable store directory: write-ahead log every placement mutation (admission, fault recovery, restore) and recover prior control-plane state on start (silo scheme only)")
		snapEvery    = flag.Int("snapshot-every", 0, "with -wal: snapshot + rotate the log every N mutations (0 = default 1024, negative disables)")
	)
	flag.Parse()

	// Validate output destinations before the run, so a typo'd path
	// fails in milliseconds instead of after the simulation.
	for _, f := range []struct{ name, path string }{
		{"-metrics", *metricsOut}, {"-trace", *traceOut}, {"-series", *seriesOut}, {"-introspect", *introOut},
		{"-incidents", *incidentsOut},
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
	if *windowMs <= 0 {
		fmt.Fprintf(os.Stderr, "-window: must be > 0, got %g\n", *windowMs)
		os.Exit(2)
	}
	if *walDir != "" && *schemeName != "silo" {
		fmt.Fprintln(os.Stderr, "-wal requires -scheme silo (the comparison placers have no durable state)")
		os.Exit(2)
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

	reg, srv, finishObs, err := obs.StartCLI(obs.CLIConfig{
		MetricsPath: *metricsOut,
		HTTPAddr:    *httpAddr,
		Pprof:       *pprofOn,
		// -slo-report, -series and -incidents consume the registry
		// internally even when nothing is exported.
		ForceRegistry: *sloReport || *seriesOut != "" || *incidentsOut != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Provenance for every artifact this run writes: tool, build
	// revision, and the knobs that determine the output byte for byte.
	meta := obs.CollectRunMeta("silo-sim")
	meta.Seed = int64(*seed)
	meta.Scheme = *schemeName

	const msg = 5000
	gA := tenant.Guarantee{BandwidthBps: 0.25 * gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * gbps}
	gB := tenant.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps}
	windowNs := int64(*windowMs * 1e6)
	sc := experiments.Scenario{
		Topology: experiments.TenGbE(1, *racks, *servers, 4, 5, 1),
		Scheme:   scheme,
		Seed:     *seed,
		Tenants: []experiments.Tenant{{
			// Tenant A: all-to-one bursts.
			Spec:   tenant.Spec{ID: 1, Name: "oldi", VMs: *vmsA, Guarantee: gA, FaultDomains: 2},
			VMBase: 1000,
			Hose:   experiments.Hose{Kind: experiments.HoseFairShare, Pattern: workload.AllToOne(*vmsA)},
			Driver: experiments.Driver{Kind: experiments.DriverOLDI, MsgBytes: msg},
		}, {
			// Tenant B: continuous shuffle.
			Spec:   tenant.Spec{ID: 2, Name: "shuffle", VMs: *vmsB, Guarantee: gB, FaultDomains: 2},
			VMBase: 2000,
			Hose:   experiments.Hose{Kind: experiments.HoseFairShare, Pattern: workload.AllToAll(*vmsB)},
			Driver: experiments.Driver{Kind: experiments.DriverShuffle, MsgBytes: 1 << 20},
		}},
		HorizonNs: int64(*duration * 1e9),
		DrainNs:   3e9,
		// On the silo scheme every down event triggers Recover after the
		// -fault-detect delay and every up event returns the repaired
		// servers to the pool. Recovery here is control-plane only — pacer
		// VMs and transport endpoints are not re-deployed (see
		// experiments.RunFailureDrill for the full data-plane drill).
		Faults:       *faultSched,
		DetectNs:     faultDetect.Nanoseconds(),
		FaultGraceNs: 5 * windowNs,
		// The guarantee audit runs on every invocation (with or without
		// -metrics): admitted {B, S, d} triples are checked against every
		// delivered packet's NIC-to-NIC delay.
		Planes: experiments.Planes{
			Audit:           true,
			Introspect:      *introOut != "",
			Incidents:       *incidentsOut != "",
			IncidentMergeNs: 2 * windowNs,
		},
	}
	if *traceOut != "" {
		sc.Planes.TraceSampleN = *traceSample
	}
	if reg != nil {
		// Continuous telemetry: every -window of simulated time, snapshot
		// the registry into the time-series rollup and advance the SLO
		// burn-rate engine.
		sc.Planes.SLOWindowNs = windowNs
	}

	env := experiments.Env{Registry: reg, Meta: &meta}
	var dur *durable.Manager
	if *walDir != "" {
		if env.Tree, err = topology.New(sc.Topology); err == nil {
			dur, err = openStore(*walDir, *snapEvery, env.Tree, sc.Tenants, &meta, reg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		env.Placer = dur // mutations go through dur so they are logged
	}
	run, err := experiments.Build(sc, env)
	if err == nil && len(run.Rejected) > 0 {
		err = run.Rejected[0]
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nw := run.Net

	dashOpts := dashboard.Options{
		Title:     "silo-sim " + *schemeName,
		Rollup:    run.Rollup,
		Engine:    run.Engine,
		Ports:     nw.PortMeta(),
		Incidents: run.Correlator,
		Meta:      &meta,
		Runtime:   func() obsruntime.Stats { return obsruntime.Collect(nw) },
		WAL: func() *durable.Status {
			if dur == nil {
				return nil
			}
			s := dur.Status()
			return &s
		},
	}
	if srv != nil {
		dashboard.Attach(srv, dashOpts)
		fmt.Printf("dashboard: http://%s/\n", srv.Addr())
	}

	// SIGINT/SIGTERM stop the event loop between events; everything
	// below still runs, so partial-run telemetry and traces are flushed
	// and written rather than lost.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	run.Execute(ctx)
	interrupted := ctx.Err() != nil
	stopSignals()
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted at t=%.3f ms simulated; flushing telemetry\n",
			float64(nw.Sim.Now())/1e6)
		if run.Engine != nil {
			run.Rollup.Capture(nw.Sim.Now())
			run.Engine.Flush(nw.Sim.Now())
		}
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
			if rep.LogErr != nil {
				fmt.Fprintf(os.Stderr, "wal: recovery aborted, log unavailable: %v\n", rep.LogErr)
			}
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
	if *sloReport {
		fmt.Println()
		fmt.Print(run.Engine.RenderReport())
	}
	if run.Snapshot != nil {
		fmt.Println()
		fmt.Print(run.Snapshot.Render())
		if err := run.Snapshot.WriteFile(*introOut); err != nil {
			fmt.Fprintf(os.Stderr, "-introspect: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("introspection snapshot written to %s (join with silo-trace -why)\n", *introOut)
	}
	if run.Incidents != nil {
		fmt.Println()
		fmt.Print(run.Incidents.Render())
		if err := run.Incidents.WriteFile(*incidentsOut); err != nil {
			fmt.Fprintf(os.Stderr, "-incidents: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("incident report written to %s (inspect with silo-incident)\n", *incidentsOut)
	}
	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		if err == nil {
			err = dashboard.WriteJSON(f, dashOpts)
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
	if dur != nil {
		// Flush the fsync batch and close: a clean shutdown (including
		// one triggered by SIGINT/SIGTERM above) loses no records.
		if err := dur.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wal close: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wal: %d mutations logged to %s\n", dur.Seq(), dur.Dir())
	}
	if err := finishObs(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// openStore opens (or recovers) the durable placement store over the
// scenario's tree. The scenario's tenants have fixed IDs; a recovered
// store may still hold them from the previous run, and the data plane
// is redeployed from scratch each run, so the old admissions are
// released (logged like any mutation) before the run re-places them.
func openStore(dir string, snapEvery int, tree *topology.Tree, tenants []experiments.Tenant, meta *obs.RunMeta, reg *obs.Registry) (*durable.Manager, error) {
	dur, info, err := durable.Open(dir, tree, durable.Options{
		SnapshotEvery: snapEvery,
		Meta:          meta,
		Metrics:       durable.NewMetrics(reg),
	})
	if err != nil {
		return nil, err
	}
	fmt.Println(info.Render())
	if info.SafeMode {
		fmt.Fprintln(os.Stderr, "warning: store recovered into safe mode; new admissions will be rejected")
	}
	dur.EnableGauges(reg)
	dur.EnableMetrics(reg)
	for _, t := range tenants {
		if _, ok := dur.Placement(t.Spec.ID); ok {
			if err := dur.Remove(t.Spec.ID); err != nil {
				return nil, fmt.Errorf("wal: releasing recovered tenant %d: %w", t.Spec.ID, err)
			}
		}
	}
	return dur, nil
}
