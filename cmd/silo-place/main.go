// Command silo-place runs Silo admission control over a stream of
// tenant requests and prints each placement decision, the per-port
// queue bounds it implies, and the tenant's message-latency guarantee.
//
// Usage:
//
//	silo-place -pods 2 -racks 5 -servers 10 -slots 8 \
//	    -tenants 20 -vms 16 -bw-mbps 250 -burst-kb 15 -delay-ms 1
//
// A second placer (-algo oktopus|locality) allows side-by-side
// comparison of admission decisions.
//
// With -explain N (silo only), the admission journal explains tenant
// N's decision after the stream runs: every crossed port's cut and
// margin for an accept, or the violated constraint and limiting port
// for a reject. -explain -1 explains every rejected tenant.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/dashboard"
	"repro/internal/obs/timeseries"
	"repro/internal/placement"
	"repro/internal/placement/durable"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

func main() {
	var (
		pods     = flag.Int("pods", 2, "pods")
		racks    = flag.Int("racks", 5, "racks per pod")
		servers  = flag.Int("servers", 10, "servers per rack")
		slots    = flag.Int("slots", 8, "VM slots per server")
		linkGbps = flag.Float64("link-gbps", 10, "server link rate")
		bufKB    = flag.Float64("buf-kb", 312, "switch buffer per port")
		oversub  = flag.Float64("oversub", 5, "oversubscription per level")
		algo     = flag.String("algo", "silo", "placement algorithm (silo|oktopus|locality)")
		workers  = flag.Int("workers", 0, "scope-search goroutines for silo (0 = GOMAXPROCS on large searches only, 1 = serial; decisions are identical at any setting)")
		explain  = flag.Int("explain", 0, "explain tenant N's admission decision from the journal after the run (-1 = every rejected tenant; silo only)")

		tenants = flag.Int("tenants", 20, "number of tenant requests")
		vms     = flag.Int("vms", 16, "VMs per tenant")
		bwMbps  = flag.Float64("bw-mbps", 250, "per-VM bandwidth guarantee")
		burstKB = flag.Float64("burst-kb", 15, "per-VM burst allowance")
		delayMs = flag.Float64("delay-ms", 1, "packet delay guarantee (0 = none)")
		bmaxG   = flag.Float64("bmax-gbps", 1, "burst rate cap")
		msgKB   = flag.Float64("msg-kb", 20, "message size for the latency bound printout")
		seed    = flag.Uint64("seed", 1, "rng seed")

		walDir    = flag.String("wal", "", "durable store directory: write-ahead log every admission mutation and recover prior state on start (silo only)")
		snapEvery = flag.Int("snapshot-every", 0, "with -wal: snapshot + rotate the log every N mutations (0 = default 1024, negative disables)")

		metricsOut = flag.String("metrics", "", "export metrics on exit (\"-\" = Prometheus to stdout, *.json = expvar JSON, else Prometheus to file)")
		httpAddr   = flag.String("http", "", "serve the dashboard, /metrics and /debug/vars on this address during the run")
		pprofOn    = flag.Bool("pprof", false, "additionally expose /debug/pprof on the -http address")
	)
	flag.Parse()

	// The request stream stops at SIGINT/SIGTERM so an open WAL is
	// flushed and closed instead of losing its fsync batch.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if err := obs.ValidateOutputPath("-metrics", *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *walDir != "" && *algo != "silo" {
		fmt.Fprintln(os.Stderr, "-wal requires -algo silo (the comparison placers have no durable state)")
		os.Exit(2)
	}

	reg, srv, finishObs, err := obs.StartCLI(obs.CLIConfig{
		MetricsPath: *metricsOut, HTTPAddr: *httpAddr, Pprof: *pprofOn,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var dur *durable.Manager
	if srv != nil {
		// Admission has no simulated clock, so the rollup samples real
		// time while the request stream runs.
		rollup := timeseries.NewRollup(reg, 512)
		stop := dashboard.DriveWallClock(rollup, time.Second)
		defer stop()
		dashboard.Attach(srv, dashboard.Options{
			Title: "silo-place", Rollup: rollup,
			// dur is opened after the topology below; the collector is
			// evaluated per request, so the panel lights up once it is.
			WAL: func() *durable.Status {
				if dur == nil {
					return nil
				}
				s := dur.Status()
				return &s
			},
		})
		fmt.Printf("dashboard: http://%s/\n", srv.Addr())
	}

	tree, err := topology.New(topology.Config{
		Pods:           *pods,
		RacksPerPod:    *racks,
		ServersPerRack: *servers,
		SlotsPerServer: *slots,
		LinkBps:        *linkGbps * 1e9 / 8,
		BufferBytes:    *bufKB * 1e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    *oversub,
		PodOversub:     *oversub,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var placer placement.Algorithm
	switch *algo {
	case "silo":
		if *walDir != "" {
			d, info, derr := durable.Open(*walDir, tree, durable.Options{
				Placement:     placement.Options{Workers: *workers},
				SnapshotEvery: *snapEvery,
				Meta:          ptrMeta(obs.CollectRunMeta("silo-place")),
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
			if *explain != 0 {
				d.EnableJournal(0)
			}
			dur = d
			placer = d
			break
		}
		m := placement.NewManager(tree, placement.Options{Workers: *workers})
		m.EnableMetrics(reg)
		if *explain != 0 {
			m.EnableJournal(0)
		}
		placer = m
	case "oktopus":
		placer = placement.NewOktopus(tree)
	case "locality":
		placer = placement.NewLocality(tree)
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	fmt.Printf("datacenter: %d servers, %d slots, %s placement\n",
		tree.Servers(), tree.Slots(), placer.Name())
	g := tenant.Guarantee{
		BandwidthBps: *bwMbps * 1e6 / 8,
		BurstBytes:   *burstKB * 1e3,
		DelayBound:   *delayMs / 1e3,
		BurstRateBps: *bmaxG * 1e9 / 8,
	}
	fmt.Printf("per-VM guarantee: B=%.0f Mbps S=%.0f KB d=%.2f ms Bmax=%.1f Gbps\n",
		*bwMbps, *burstKB, *delayMs, *bmaxG)
	fmt.Printf("message latency bound (%.0f KB message): %.3f ms\n\n",
		*msgKB, g.MessageLatencyBound(*msgKB*1e3)*1e3)

	rng := stats.NewRand(*seed)
	accepted := 0
	// A recovered store already decided earlier requests; continue the
	// ID stream after them instead of colliding with admitted tenants.
	idBase := 0
	if dur != nil {
		idBase = dur.Accepted() + dur.Rejected()
	}
	var rejectedIDs []int
	for i := 0; i < *tenants; i++ {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "interrupted after %d requests\n", i)
			break
		}
		n := *vms
		if n <= 0 {
			n = 4 + rng.Intn(24)
		}
		id := idBase + i + 1
		spec := tenant.Spec{ID: id, Name: fmt.Sprintf("tenant-%d", id), VMs: n, Guarantee: g, FaultDomains: 2}
		pl, err := placer.Place(spec)
		if err != nil {
			fmt.Printf("tenant-%-3d REJECTED: %v\n", id, err)
			rejectedIDs = append(rejectedIDs, id)
			continue
		}
		accepted++
		perServer := map[int]int{}
		for _, s := range pl.Servers {
			perServer[s]++
		}
		distinct := pl.DistinctServers()
		span := "server"
		if len(distinct) > 1 {
			span = "rack"
			r0 := tree.RackOfServer(distinct[0])
			p0 := tree.PodOfServer(distinct[0])
			for _, s := range distinct[1:] {
				if tree.PodOfServer(s) != p0 {
					span = "datacenter"
					break
				}
				if tree.RackOfServer(s) != r0 {
					span = "pod"
				}
			}
		}
		fmt.Printf("tenant-%-3d placed: %d VMs on %d servers (span: %s)\n",
			id, n, len(distinct), span)
	}
	fmt.Printf("\naccepted %d / %d tenants\n", accepted, *tenants)

	m, haveMgr := placer.(*placement.Manager)
	if dur != nil {
		m, haveMgr = dur.Manager, true
	}
	if haveMgr {
		// Print the five most loaded ports by queue bound.
		type pb struct {
			id    int
			bound float64
		}
		var worst []pb
		for pid := 0; pid < tree.NumPorts(); pid++ {
			if b := m.QueueBound(pid); b > 0 {
				worst = append(worst, pb{pid, b})
			}
		}
		for i := 0; i < len(worst); i++ {
			for j := i + 1; j < len(worst); j++ {
				if worst[j].bound > worst[i].bound {
					worst[i], worst[j] = worst[j], worst[i]
				}
			}
		}
		if len(worst) > 5 {
			worst = worst[:5]
		}
		fmt.Println("\nbusiest ports (worst-case queuing delay vs capacity):")
		for _, w := range worst {
			port := tree.Port(w.id)
			fmt.Printf("  port %-4d %-6s/%-4s bound=%7.1fµs capacity=%7.1fµs\n",
				w.id, port.Level, port.Dir, w.bound*1e6, port.QueueCapacity()*1e6)
		}

		if *explain != 0 {
			ids := []int{*explain}
			if *explain < 0 {
				ids = rejectedIDs
			}
			for _, id := range ids {
				fmt.Printf("\n-- explain tenant-%d --\n%s", id, m.Explain(id))
			}
		}
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

// ptrMeta boxes a RunMeta for the durable store's provenance stamp.
func ptrMeta(m obs.RunMeta) *obs.RunMeta { return &m }
