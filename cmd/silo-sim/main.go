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

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/dashboard"
	"repro/internal/obs/incident"
	"repro/internal/obs/introspect"
	obsruntime "repro/internal/obs/runtime"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/placement/durable"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
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

	var scheme experiments.Scheme
	switch *schemeName {
	case "silo":
		scheme = experiments.SchemeSilo
	case "tcp":
		scheme = experiments.SchemeTCP
	case "dctcp":
		scheme = experiments.SchemeDCTCP
	case "hull":
		scheme = experiments.SchemeHULL
	case "okto":
		scheme = experiments.SchemeOkto
	case "okto+":
		scheme = experiments.SchemeOktoPlus
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeName)
		os.Exit(2)
	}

	tree, err := topology.New(topology.Config{
		Pods:           1,
		RacksPerPod:    *racks,
		ServersPerRack: *servers,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nw := netsim.Build(netsim.NewSim(), tree, schemeNetOptions(scheme, tree))
	f := transport.NewFabric(nw)
	rng := stats.NewRand(*seed)

	gA := tenant.Guarantee{BandwidthBps: 0.25 * gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * gbps}
	gB := tenant.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps}

	placer := schemePlacer(scheme, tree)
	var dur *durable.Manager
	if *walDir != "" {
		d, info, derr := durable.Open(*walDir, tree, durable.Options{
			SnapshotEvery: *snapEvery,
			Meta:          &meta,
			Metrics:       durable.NewMetrics(reg),
		})
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			os.Exit(1)
		}
		fmt.Println(info.Render())
		if info.SafeMode {
			fmt.Fprintln(os.Stderr, "warning: store recovered into safe mode; new admissions will be rejected")
		}
		d.EnableGauges(reg)
		d.EnableMetrics(reg)
		dur = d
		placer = d
	}
	// mgr is the underlying Silo manager regardless of whether the WAL
	// wraps it; use it for read-only diagnostics only — mutations must
	// go through placer/dur so they are logged.
	mgr, haveMgr := placer.(*placement.Manager)
	if dur != nil {
		mgr, haveMgr = dur.Manager, true
	}
	specA := tenant.Spec{ID: 1, Name: "oldi", VMs: *vmsA, Guarantee: gA, FaultDomains: 2}
	specB := tenant.Spec{ID: 2, Name: "shuffle", VMs: *vmsB, Guarantee: gB, FaultDomains: 2}
	if dur != nil {
		// The scenario's two tenants have fixed IDs. A recovered store
		// may still hold them from the previous run; the data plane is
		// redeployed from scratch each run, so release the old admission
		// (logged like any mutation) before re-placing.
		for _, id := range []int{specA.ID, specB.ID} {
			if _, ok := mgr.Placement(id); ok {
				if err := dur.Remove(id); err != nil {
					fmt.Fprintf(os.Stderr, "wal: releasing recovered tenant %d: %v\n", id, err)
					os.Exit(1)
				}
			}
		}
	}
	plA, err := placer.Place(specA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenant A rejected: %v\n", err)
		os.Exit(1)
	}
	plB, err := placer.Place(specB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenant B rejected: %v\n", err)
		os.Exit(1)
	}
	depA := experiments.DeployTenant(nw, f, scheme, specA, plA, 1000)
	depB := experiments.DeployTenant(nw, f, scheme, specB, plB, 2000)

	// The guarantee audit runs on every invocation (with or without
	// -metrics): admitted {B, S, d} triples are checked against every
	// delivered packet's NIC-to-NIC delay.
	audit := obs.NewGuaranteeAuditor(reg)
	bm := pacer.NewBatchMetrics(reg)
	depA.EnableTelemetry(nw, reg, audit, bm)
	depB.EnableTelemetry(nw, reg, audit, bm)
	nw.RegisterMetrics(reg)
	// Engine self-telemetry: the silo_runtime_* families.
	obsruntime.Register(reg, nw)
	tenantOf := func(vmID int) (int, bool) {
		switch {
		case vmID >= 1000 && vmID < 1000+*vmsA:
			return specA.ID, true
		case vmID >= 2000 && vmID < 2000+*vmsB:
			return specB.ID, true
		}
		return 0, false
	}
	nw.AttachDelayAudit(audit, tenantOf)

	// The incident plane's unified violation stream: one log fed by the
	// auditor's per-delivery tap and (below) the SLO engine's window
	// sink. Wired before the run — the tap is read without locks on the
	// delivery path.
	var vlog *obs.ViolationLog
	if *incidentsOut != "" {
		vlog = obs.NewViolationLog(1 << 16)
		audit.SetViolationTap(vlog.Observe)
	}

	var flight *obs.FlightRecorder
	if *traceOut != "" {
		flight = obs.NewFlightRecorder(0, *traceSample)
		netsim.AttachFlightRecorder(nw, flight)
	}

	// The introspection plane: envelope estimators on every VM of both
	// tenants (pacer commit taps when paced, NIC arrivals otherwise) and
	// guarantee-margin watches on every port, with bounds from the
	// admitted set when the placer is the full Manager. Bounds reflect
	// admission at attach time; a mid-run fault that loosens them shows
	// up as a negative margin, which is the point.
	var intro *introspect.Introspector
	if *introOut != "" {
		intro = introspect.Attach(nw, reg, introspect.Config{})
		for _, d := range []*experiments.Deployment{depA, depB} {
			adm := introspect.Envelope{RateBps: d.Spec.Guarantee.BandwidthBps, BurstBytes: d.Spec.Guarantee.BurstBytes}
			for i, vmID := range d.VMIDs {
				intro.TrackVM(d.Placement.Servers[i], vmID, d.Spec.ID, adm)
			}
		}
		if haveMgr {
			intro.BindPlacement(mgr)
		}
	}

	if scheme.Paced() {
		experiments.CoordinateHose(nw, depA, workload.AllToOne(*vmsA), experiments.HoseFairShare)
		experiments.CoordinateHose(nw, depB, workload.AllToAll(*vmsB), experiments.HoseFairShare)
	}

	horizon := int64(*duration * 1e9)
	drainEnd := horizon + int64(3e9)
	windowNs := int64(*windowMs * 1e6)

	// Fault injection: parse and validate the -fault schedule, and (on
	// the silo scheme, whose placer is the full Manager) close the
	// control loop: every down event triggers Recover after the
	// -fault-detect delay, evacuating and re-admitting affected tenants;
	// every up event returns the repaired servers to the placement pool.
	// Recovery here is control-plane only — pacer VMs and transport
	// endpoints are not re-deployed (see experiments.RunFailureDrill for
	// the full data-plane drill).
	var inj *faults.Injector
	var recoveries []*placement.RecoveryReport
	if *faultSched != "" {
		sched, err := faults.ParseSchedule(*faultSched)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		inj = faults.NewInjector(nw)
		inj.GraceNs = 5 * windowNs
		// With -wal, recovery mutations must go through the durable
		// wrapper so every ladder step is logged before it applies.
		type recoverCtl interface {
			Recover(failedServers, failedPorts []int, opts placement.RecoverOptions) *placement.RecoveryReport
			RestoreServers(servers ...int)
		}
		var ctl recoverCtl
		if dur != nil {
			ctl = dur
		} else if haveMgr {
			ctl = mgr
		}
		if ctl != nil {
			detectNs := faultDetect.Nanoseconds()
			inj.OnEvent = func(ev faults.Event) {
				nw.Sim.After(detectNs, func() {
					if ev.Kind.IsDown() {
						rep := ctl.Recover(ev.Servers, ev.Ports, placement.RecoverOptions{})
						if rep.LogErr != nil {
							fmt.Fprintf(os.Stderr, "wal: recovery aborted, log unavailable: %v\n", rep.LogErr)
						}
						if len(rep.Affected) > 0 {
							recoveries = append(recoveries, rep)
						}
					} else {
						ctl.RestoreServers(ev.Servers...)
					}
				})
			}
		}
		if err := inj.Apply(sched); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Continuous telemetry: every -window of simulated time, snapshot
	// the registry into the time-series rollup and advance the SLO
	// burn-rate engine, with the live port-window tracker naming the
	// culprit port of each violating window.
	// The incident correlator re-runs at every window flush, so the
	// dashboard panel and the silo_incident_* metric families track the
	// run live; the authoritative correlation (with the introspection
	// snapshot as verdict evidence) happens once more at exit.
	var corr *incident.Correlator
	if vlog != nil {
		corr = incident.New(incident.Config{MergeNs: 2 * windowNs})
		corr.SetPortMeta(nw.PortMeta())
		corr.SetMeta(&meta)
		if reg != nil {
			corr.RegisterMetrics(reg)
		}
	}

	var rollup *timeseries.Rollup
	var engine *slo.Engine
	if reg != nil {
		rollup = timeseries.NewRollup(reg, 512)
		tracker := netsim.AttachPortWindowTracker(nw)
		engine = slo.New(slo.Config{WindowNs: windowNs}, audit, tracker)
		if vlog != nil {
			engine.SetViolationSink(vlog.Observe)
		}
		nw.Sim.Every(windowNs, drainEnd, func(now int64) {
			rollup.Capture(now)
			engine.Flush(now)
			tracker.Reset()
			if corr != nil {
				corr.SetViolations(vlog.Events())
				if inj != nil {
					corr.SetFaultEvents(inj.Events(), inj.GraceNs)
				}
				corr.SetAlerts(engine.Events())
				corr.Correlate()
			}
		})
	}
	if inj != nil {
		// Violations in windows overlapping an injected outage are
		// labeled with the fault and tallied in the report's in-fault
		// column (nil-safe when -slo-report/-series are off).
		engine.SetFaultLookup(inj.FaultIn)
	}
	dashOpts := dashboard.Options{
		Title:     "silo-sim " + *schemeName,
		Rollup:    rollup,
		Engine:    engine,
		Ports:     nw.PortMeta(),
		Incidents: corr,
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

	lat := stats.NewSample(1 << 14)
	rtos := 0
	msgs := 0

	// Tenant A: all-to-one bursts.
	msg := 5000
	meanPeriod := 4 * float64(*vmsA-1) * float64(msg) / gA.BandwidthBps * 1e9
	var round func()
	next := int64(rng.Exp(meanPeriod))
	round = func() {
		for i := 1; i < *vmsA; i++ {
			msgs++
			depA.Endpoints[i].SendMessage(depA.VMIDs[0], msg, func(m *transport.Message) {
				lat.Add(float64(m.Latency()) / 1e3)
				if m.RTOs > 0 {
					rtos++
				}
			})
		}
		next += int64(rng.Exp(meanPeriod))
		if next < horizon {
			nw.Sim.At(next, round)
		}
	}
	nw.Sim.At(next, round)

	// Tenant B: continuous shuffle.
	for i := 0; i < *vmsB; i++ {
		for j := 0; j < *vmsB; j++ {
			if i == j || plB.Servers[i] == plB.Servers[j] {
				continue
			}
			ep := depB.Endpoints[i]
			dst := depB.VMIDs[j]
			var pump func(*transport.Message)
			pump = func(*transport.Message) {
				if nw.Sim.Now() < horizon {
					ep.SendMessage(dst, 1<<20, pump)
				}
			}
			pump(nil)
		}
	}

	// SIGINT/SIGTERM stop the event loop between events; everything
	// below still runs, so partial-run telemetry and traces are flushed
	// and written rather than lost.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	nw.RunCtx(ctx, drainEnd)
	interrupted := ctx.Err() != nil
	stopSignals()
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted at t=%.3f ms simulated; flushing telemetry\n",
			float64(nw.Sim.Now())/1e6)
		if rollup != nil {
			rollup.Capture(nw.Sim.Now())
		}
		if engine != nil {
			engine.Flush(nw.Sim.Now())
		}
	}

	bound := gA.MessageLatencyBound(float64(msg)) * 1e6
	fmt.Printf("scheme=%s  tenantA=%d VMs all-to-one (%d B bursts)  tenantB=%d VMs shuffle\n",
		scheme, *vmsA, msg, *vmsB)
	fmt.Printf("messages=%d completed=%d withRTO=%d drops=%d faultDrops=%d voids=%d\n",
		msgs, lat.Len(), rtos, nw.TotalDrops(), nw.TotalFaultDrops(), nw.TotalVoidsDropped())
	fmt.Printf("latency (µs): %s\n", lat.Summary("µs"))
	fmt.Printf("Silo-style guarantee for this message: %.0f µs\n", bound)
	if scheme == experiments.SchemeSilo {
		if lat.Max() <= bound {
			fmt.Println("=> every message met the guarantee")
		} else {
			fmt.Printf("=> %0.3f%% of messages exceeded the guarantee\n", 100*lat.FractionAbove(bound))
		}
	}
	fmt.Println(audit.Summary())
	if inj != nil {
		fmt.Println("fault injection:")
		for _, ev := range inj.Events() {
			fmt.Printf("  %s\n", ev)
		}
		for _, rep := range recoveries {
			fmt.Print(rep.Render())
		}
		if haveMgr {
			if err := mgr.VerifyInvariants(); err != nil {
				fmt.Printf("placement invariants after recovery: FAILED: %v\n", err)
			} else {
				fmt.Println("placement invariants after recovery: ok")
			}
		}
	}
	if flight != nil {
		ports := nw.PortMeta()
		spans := obs.AssembleFlight(flight.Events(), ports)
		violations := obs.AnnotateSpans(spans, audit, tenantOf)
		fmt.Println(obs.SummarizeFlight(spans).Render())
		for i, v := range violations {
			if i >= 3 {
				fmt.Printf("... %d more violations in the trace file\n", len(violations)-3)
				break
			}
			fmt.Print(obs.RenderSpan(v, ports))
		}
		if err := obs.WriteTraceFileMeta(*traceOut, &meta, ports, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("flight trace (1 in %d packets) written to %s\n", flight.SampleN(), *traceOut)
	}
	if *sloReport {
		fmt.Println()
		fmt.Print(engine.RenderReport())
	}
	var snap *introspect.Snapshot
	if intro != nil {
		s := intro.Snapshot()
		s.Meta = &meta
		snap = &s
		fmt.Println()
		fmt.Print(s.Render())
		if err := s.WriteFile(*introOut); err != nil {
			fmt.Fprintf(os.Stderr, "-introspect: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("introspection snapshot written to %s (join with silo-trace -why)\n", *introOut)
	}
	if corr != nil {
		// Authoritative end-of-run correlation: the full violation
		// stream, the final fault log, and the introspection snapshot as
		// verdict evidence (without -introspect, incidents that need
		// envelope evidence stay honestly unexplained).
		corr.SetViolations(vlog.Events())
		if inj != nil {
			corr.SetFaultEvents(inj.Events(), inj.GraceNs)
		}
		if engine != nil {
			corr.SetAlerts(engine.Events())
		}
		corr.SetSnapshot(snap)
		rep := corr.Correlate()
		fmt.Println()
		fmt.Print(rep.Render())
		if err := rep.WriteFile(*incidentsOut); err != nil {
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

func schemeNetOptions(s experiments.Scheme, tree *topology.Tree) netsim.Options {
	switch s {
	case experiments.SchemeDCTCP:
		return netsim.Options{PropNs: 200, ECNThresholdBytes: 65 * 1500}
	case experiments.SchemeHULL:
		return netsim.Options{PropNs: 200, PhantomGamma: 0.95, PhantomThresholdBytes: 15e3}
	default:
		return netsim.Options{PropNs: 200}
	}
}

func schemePlacer(s experiments.Scheme, tree *topology.Tree) placement.Algorithm {
	switch s {
	case experiments.SchemeSilo:
		return placement.NewManager(tree, placement.Options{})
	case experiments.SchemeOkto, experiments.SchemeOktoPlus:
		return placement.NewOktopus(tree)
	default:
		return placement.NewLocality(tree)
	}
}
