package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/slo"
)

// traceCmd analyzes a flight trace recorded by silo-sim -trace: the
// per-message latency attribution
//
//	pacing + queueing + serialization + propagation = NIC-to-NIC delay
//
// reassembled from the simulator's lifecycle events. It prints the
// roll-up attribution, the top-K slowest messages hop by hop, the
// per-port queueing table (which port holds packets longest, and how
// often it is a message's worst hop), and a drill-down of every
// delay-bound violation with its culprit port.
//
//	silo-sim -scheme tcp -duration 0.05 -trace run.json
//	silo-inspect trace run.json
//	silo-inspect trace -top 10 -violations run.json
//	silo-inspect trace -windows run.json
//
// -windows adds the SLO view of the trace: per-tenant conformance
// bucketed into fixed windows, each violating window naming the
// dominant culprit port — the offline counterpart of silo-sim's SLO
// windows.
//
// -why N joins packet N's hop-by-hop trace with the introspection
// snapshot written by silo-sim -introspect (-margins file): for each
// port the packet crossed, the analytic backlog bound from the
// admitted tenant set versus the occupancy the packet actually found,
// plus the sender's fitted arrival envelope against its admitted
// {B, S} — so the verdict names whether a slow message was
// self-inflicted (sender broke its envelope) or a port ran out of
// modeled headroom.
//
// Recordings are Chrome trace JSON: the same file carries full per-hop
// detail for this reader and loads directly in Perfetto.
func traceCmd(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		top        = fs.Int("top", 5, "show the K slowest messages hop by hop")
		violations = fs.Bool("violations", false, "drill into every delay-bound violation (default: first 3)")
		portsN     = fs.Int("ports", 10, "rows in the per-port queueing table")
		windows    = fs.Bool("windows", false, "windowed per-tenant SLO conformance with culprit ports")
		windowMs   = fs.Float64("window", 1, "window width for -windows, in simulated milliseconds")
		why        = fs.Uint64("why", 0, "explain packet N: join its hops with the introspection snapshot's port margins and the sender's fitted envelope (needs -margins)")
		marginsIn  = fs.String("margins", "", "introspection snapshot written by silo-sim -introspect (required by -why)")
	)
	path := parse(fs, args, "<trace.json>")
	windowNs := int64(*windowMs * 1e6)
	if windowNs <= 0 {
		fmt.Fprintf(os.Stderr, "-window: must be > 0, got %g\n", *windowMs)
		return 2
	}
	if *why != 0 && *marginsIn == "" {
		fmt.Fprintln(os.Stderr, "-why needs -margins <file> (written by silo-sim -introspect)")
		return 2
	}

	meta, ports, spans, err := obs.ReadTraceFileMeta(path)
	if err != nil {
		return fail(err)
	}
	provenance(meta)

	sum := obs.SummarizeFlight(spans)
	fmt.Println(sum.Render())

	if *top > 0 {
		slow := obs.SlowestSpans(spans, *top)
		if len(slow) > 0 {
			fmt.Printf("\n== %d slowest messages ==\n", len(slow))
			for i := range slow {
				fmt.Print(obs.RenderSpan(&slow[i], ports))
			}
		}
	}

	if stats := obs.AggregatePorts(spans); len(stats) > 0 {
		fmt.Println("\n== per-port queueing (complete spans) ==")
		fmt.Printf("%-16s %8s %12s %12s %10s %12s\n",
			"port", "pkts", "mean q (µs)", "max q (µs)", "worst-of", "max found B")
		for i, st := range stats {
			if i >= *portsN {
				fmt.Printf("... %d more ports\n", len(stats)-*portsN)
				break
			}
			mean := 0.0
			if st.Packets > 0 {
				mean = float64(st.QueueSumNs) / float64(st.Packets) / 1e3
			}
			fmt.Printf("%-16s %8d %12.2f %12.2f %10d %12d\n",
				obs.PortName(ports, st.Port), st.Packets, mean,
				float64(st.QueueMaxNs)/1e3, st.WorstOfSpans, st.OccupiedMaxBytes)
		}
	}

	var viols []*obs.FlightSpan
	for i := range spans {
		if spans[i].Violated() {
			viols = append(viols, &spans[i])
		}
	}
	if len(viols) > 0 {
		fmt.Printf("\n== %d delay-bound violations ==\n", len(viols))
		show := len(viols)
		if !*violations && show > 3 {
			show = 3
		}
		for _, v := range viols[:show] {
			fmt.Print(obs.RenderSpan(v, ports))
			fmt.Printf("  culprit: %s held the packet %.2fµs (%.0f%% of total queueing)\n",
				obs.PortName(ports, v.WorstPort), float64(v.WorstQueueNs)/1e3,
				pct(v.WorstQueueNs, v.QueueNs))
		}
		if show < len(viols) {
			fmt.Printf("... %d more (rerun with -violations)\n", len(viols)-show)
		}
	}

	if *windows {
		fmt.Println("\n== windowed SLO conformance ==")
		fmt.Print(slo.RenderTraceWindows(slo.WindowsFromSpans(spans, windowNs), ports))
	}

	if *why != 0 {
		snap, err := introspect.ReadFile(*marginsIn)
		if err != nil {
			return fail(err)
		}
		if err := explainPacket(spans, ports, snap, *why); err != nil {
			return fail(err)
		}
	}

	if sum.Complete > 0 && sum.MaxAttributionErrNs == 0 {
		fmt.Println("\nattribution identity holds exactly (0 ns error) on all complete spans")
	}
	return 0
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// explainPacket joins one packet's hop-by-hop trace with the
// introspection snapshot: the sender's fitted envelope against its
// admitted {B, S}, and each crossed port's analytic backlog bound
// against the end-of-run high-water mark and the occupancy this packet
// found on arrival. The final verdict names the cause of any slowness.
func explainPacket(spans []obs.FlightSpan, ports []obs.PortMeta, snap *introspect.Snapshot, pkt uint64) error {
	var span *obs.FlightSpan
	for i := range spans {
		if spans[i].Pkt == pkt {
			span = &spans[i]
			break
		}
	}
	if span == nil {
		return fmt.Errorf("packet %d not in trace (raise -trace-sample when recording?)", pkt)
	}

	fmt.Printf("\n== why pkt %d ==\n", pkt)
	fmt.Print(obs.RenderSpan(span, ports))

	// sender is the sender's half of the verdict, "" once it broke its
	// envelope. A span without a pacer enqueue has no known sender.
	sender := "sender conforming"
	switch env, ok := snap.EnvelopeFor(int(span.SrcVM)); {
	case span.EnqueueNs < 0:
		sender = "sender unknown"
		fmt.Println("  sender vm?: unknown (no pacer enqueue in the trace: an unpaced packet, an ack, or an enqueue the ring overwrote)")
	case !ok:
		sender = "sender untracked"
		fmt.Printf("  sender vm%d: no envelope tracked in the snapshot\n", span.SrcVM)
	default:
		verdict := "conforming"
		if env.Violated {
			verdict = "VIOLATED"
			sender = ""
		}
		fmt.Printf("  sender vm%d (tenant %d): admitted B=%.2f MBps S=%.1f KB, fitted B=%.2f MBps S*=%.1f KB — %s\n",
			env.VMID, env.TenantID, env.AdmittedRateBps/1e6, env.AdmittedBurstBytes/1e3,
			env.FittedRateBps/1e6, env.FittedBurstBytes/1e3, verdict)
	}

	fmt.Printf("  %-16s %12s %12s %12s %12s\n", "port", "found(KB)", "hwm(KB)", "bound(KB)", "margin(KB)")
	tightPort, tightMargin := -1, 0.0
	for _, h := range span.Hops {
		ph, ok := snap.PortFor(int(h.Port))
		if !ok {
			fmt.Printf("  %-16s %12.1f %12s %12s %12s\n",
				obs.PortName(ports, h.Port), float64(h.OccupiedBytes)/1e3, "-", "-", "-")
			continue
		}
		bound, margin := "inf", "inf"
		if ph.Bounded && ph.Bounds.BacklogBytes >= 0 {
			bound = fmt.Sprintf("%.1f", ph.Bounds.BacklogBytes/1e3)
			margin = fmt.Sprintf("%.1f", ph.MarginBytes/1e3)
			if tightPort < 0 || ph.MarginBytes < tightMargin {
				tightPort, tightMargin = ph.Port, ph.MarginBytes
			}
		}
		fmt.Printf("  %-16s %12.1f %12.1f %12s %12s\n",
			ph.Name, float64(h.OccupiedBytes)/1e3, float64(ph.HWMBytes)/1e3, bound, margin)
	}

	switch {
	case sender == "":
		fmt.Printf("  verdict: the sender broke its admitted envelope — queueing past the bound is self-inflicted and the guarantee is void\n")
	case tightPort >= 0 && tightMargin <= 0:
		fmt.Printf("  verdict: port %d exhausted its modeled headroom (margin %.1f KB) — the admitted set's worst case was reached on this path\n",
			tightPort, tightMargin/1e3)
	case tightPort >= 0 && sender == "sender conforming":
		fmt.Printf("  verdict: sender conforming and every crossed port kept positive margin (tightest: port %d, %.1f KB) — delay sits inside the netcal bound by construction\n",
			tightPort, tightMargin/1e3)
	case tightPort >= 0:
		fmt.Printf("  verdict: %s; every crossed port kept positive margin (tightest: port %d, %.1f KB)\n",
			sender, tightPort, tightMargin/1e3)
	default:
		fmt.Printf("  verdict: %s; no bounded port on the path (run silo-sim with -scheme silo so BindPlacement has admission bounds)\n", sender)
	}
	return nil
}
