package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pacer"
	"repro/internal/stats"
	"repro/internal/topology"
)

// BenchRecord is the machine-readable microbenchmark schema shared by
// the committed baselines (BENCH_placement.json, BENCH_pacer.json,
// BENCH_netsim.json) and `silo-bench -regress`. The per-op fields
// (mean/p50/p99/max, allocs) are what the regression gate compares;
// hosts/requests/accepted describe the workload so a baseline mismatch
// is visible in the report.
type BenchRecord struct {
	Benchmark   string `json:"benchmark"`
	Hosts       int    `json:"hosts"`
	Requests    int    `json:"requests"`
	Accepted    int    `json:"accepted"`
	MeanNs      int64  `json:"mean_ns"`
	P50Ns       int64  `json:"p50_ns"`
	P99Ns       int64  `json:"p99_ns"`
	MaxNs       int64  `json:"max_ns"`
	TotalNs     int64  `json:"total_ns"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// Rows holds further rows of the same microbenchmark (another
	// workload shape, same op), each gated against the baseline row of
	// the same name exactly as the record itself is.
	Rows []BenchRecord `json:"rows,omitempty"`
	// Meta records which invocation produced the record (tool, build
	// revision, flags). Provenance only — never a gated metric.
	Meta *obs.RunMeta `json:"meta,omitempty"`
}

// Record converts the placement benchmark result to the shared schema.
func (r PlacementBenchResult) Record() BenchRecord {
	return BenchRecord{
		Benchmark: "placeub", Hosts: r.Hosts, Requests: r.Requests,
		Accepted: r.Accepted, MeanNs: r.MeanNs, P50Ns: r.P50Ns,
		P99Ns: r.P99Ns, MaxNs: r.MaxNs, TotalNs: r.TotalElapsedNs,
		AllocsPerOp: r.AllocsPerOp,
	}
}

// LoadBenchRecord reads one committed baseline.
func LoadBenchRecord(path string) (BenchRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return BenchRecord{}, err
	}
	var rec BenchRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return BenchRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Benchmark == "" {
		return BenchRecord{}, fmt.Errorf("%s: missing \"benchmark\" name", path)
	}
	return rec, nil
}

// WriteBenchRecord writes a baseline in the committed format (indented,
// trailing newline — byte-identical to what `git diff` expects).
func WriteBenchRecord(path string, rec BenchRecord) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// BenchDelta is one compared metric of a baseline/current pair.
type BenchDelta struct {
	Metric    string
	Base, Cur float64
	// DeltaPct is (cur-base)/base in percent; +Inf-like growth from a
	// zero base reports 100 per unit of current value.
	DeltaPct float64
	// Gating marks metrics the regression gate acts on (per-op mean,
	// p99 and allocations); max and p50 ride along as context only.
	Gating bool
	// Regressed is set when a gating metric grew past the tolerance.
	Regressed bool
}

// CompareBenchRecords diffs a current run against its committed
// baseline. Gating metrics are mean_ns, p99_ns and allocs_per_op; a
// gating metric regresses when it exceeds the baseline by more than
// tolerancePct percent. Improvements never gate (a faster run always
// passes), and the workload-shape fields must match or the comparison
// refuses — per-op numbers from different request counts or fleets are
// not comparable.
func CompareBenchRecords(base, cur BenchRecord, tolerancePct float64) ([]BenchDelta, error) {
	if base.Benchmark != cur.Benchmark {
		return nil, fmt.Errorf("benchmark mismatch: baseline %q vs current %q", base.Benchmark, cur.Benchmark)
	}
	if base.Hosts != cur.Hosts || base.Requests != cur.Requests {
		return nil, fmt.Errorf("%s: workload mismatch: baseline %d hosts/%d requests vs current %d/%d (regenerate the baseline)",
			base.Benchmark, base.Hosts, base.Requests, cur.Hosts, cur.Requests)
	}
	if tolerancePct <= 0 {
		tolerancePct = 25
	}
	mk := func(name string, b, c int64, gating bool) BenchDelta {
		d := BenchDelta{Metric: name, Base: float64(b), Cur: float64(c), Gating: gating}
		switch {
		case b > 0:
			d.DeltaPct = 100 * (d.Cur - d.Base) / d.Base
		case c > 0:
			// Zero baseline growing to anything: report the growth as
			// 100% per unit so it always trips a gating metric.
			d.DeltaPct = 100 * d.Cur
		}
		d.Regressed = gating && d.DeltaPct > tolerancePct
		return d
	}
	return []BenchDelta{
		mk("mean_ns", base.MeanNs, cur.MeanNs, true),
		mk("p50_ns", base.P50Ns, cur.P50Ns, false),
		mk("p99_ns", base.P99Ns, cur.P99Ns, true),
		mk("max_ns", base.MaxNs, cur.MaxNs, false),
		mk("allocs_per_op", base.AllocsPerOp, cur.AllocsPerOp, true),
	}, nil
}

// AnyRegression reports whether any gating metric regressed.
func AnyRegression(deltas []BenchDelta) bool {
	for _, d := range deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// RenderBenchDeltas formats one benchmark's comparison table.
func RenderBenchDeltas(name string, deltas []BenchDelta, tolerancePct float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (tolerance %.0f%% on gating metrics):\n", name, tolerancePct)
	fmt.Fprintf(&b, "  %-14s %14s %14s %9s  %s\n", "metric", "baseline", "current", "delta", "verdict")
	for _, d := range deltas {
		verdict := "-"
		if d.Gating {
			verdict = "ok"
			if d.Regressed {
				verdict = "REGRESSED"
			}
		}
		fmt.Fprintf(&b, "  %-14s %14.0f %14.0f %+8.1f%%  %s\n", d.Metric, d.Base, d.Cur, d.DeltaPct, verdict)
	}
	return b.String()
}

// PacerBenchParams configures the pacer microbenchmark ("pacerub"):
// repeated Figure-10-style batch construction for a backlogged VM, so
// the per-frame pacing cost gets a distribution (across reps) instead
// of Figure 10's single point per rate.
type PacerBenchParams struct {
	// LineRateBps of the NIC and RateLimitGbps of the VM (8 of 10 Gbps
	// keeps a realistic void/data mix in the batches).
	LineRateBps   float64
	RateLimitGbps float64
	// WireSeconds of traffic paced per rep and PayloadBytes per frame.
	WireSeconds  float64
	PayloadBytes int
	// Reps is the sample size (one ns/frame sample per rep).
	Reps int
}

// DefaultPacerBenchParams paces 10 ms of 8-of-10 Gbps traffic per rep.
func DefaultPacerBenchParams() PacerBenchParams {
	return PacerBenchParams{
		LineRateBps:   10 * gbps,
		RateLimitGbps: 8,
		WireSeconds:   0.01,
		PayloadBytes:  1500,
		Reps:          30,
	}
}

// RunPacerBench measures the pacer's batch-construction hot path. One
// op is one wire frame (data or void); each rep paces a fresh backlog
// through the full horizon and contributes one ns/frame sample, so
// p50/p99/max expose rep-to-rep jitter rather than per-frame noise.
// Requests counts all frames built, Accepted the data frames among
// them.
//
// The record itself is Figure 10's shape: one VM, one destination, the
// caller-owned Batcher.Build. Its "pacerub/host4x6" row is the
// datacenter's: a HostPacer serving 4 VMs, each with 6 backlogged
// destinations behind hose buckets, through NextBatch, at the same
// aggregate rate and frame size (fewer, larger voids: the four VMs'
// releases coincide). It is the row that sees what the scheduler costs
// when it has more than one queue head to choose from.
func RunPacerBench(p PacerBenchParams) BenchRecord {
	if p.Reps <= 0 {
		p.Reps = DefaultPacerBenchParams().Reps
	}
	rate := p.RateLimitGbps * gbps
	horizonNs := int64(p.WireSeconds * 1e9)
	nData := int(rate * p.WireSeconds / float64(p.PayloadBytes))
	g := pacer.Guarantee{
		BandwidthBps: rate,
		BurstBytes:   float64(p.PayloadBytes),
		BurstRateBps: 0,
		MTUBytes:     float64(p.PayloadBytes),
	}

	rec := pacerBenchRow("pacerub", p.Reps, func() (time.Time, int64, int64) {
		vm := pacer.NewVM(1, g, 0)
		b := pacer.NewBatcher(p.LineRateBps)
		start := time.Now()
		for i := 0; i < nData; i++ {
			vm.Enqueue(0, 2, p.PayloadBytes, nil)
		}
		var frames, data int64
		for cursor := int64(0); cursor < horizonNs; {
			batch := b.Build(cursor, []*pacer.VM{vm})
			if len(batch.Packets) == 0 {
				break
			}
			frames += int64(len(batch.Packets))
			data += int64(batch.DataPackets())
			cursor = batch.End
		}
		return start, frames, data
	})

	const vms, dests = 4, 6
	rec.Rows = []BenchRecord{pacerBenchRow("pacerub/host4x6", p.Reps, func() (time.Time, int64, int64) {
		h := pacer.NewHostPacer(pacer.NewBatcher(p.LineRateBps))
		gvm := g
		gvm.BandwidthBps = rate / vms
		for v := 1; v <= vms; v++ {
			vm := pacer.NewVM(v, gvm, 0)
			for d := 1; d <= dests; d++ {
				vm.SetDestRate(0, 100+d, gvm.BandwidthBps/dests)
			}
			h.AddVM(vm)
		}
		start := time.Now()
		for i := 0; i < nData; i++ {
			h.VMs()[i%vms].Enqueue(0, 101+i/vms%dests, p.PayloadBytes, nil)
		}
		var frames, data int64
		for cursor := int64(0); cursor < horizonNs; {
			batch := h.NextBatch(cursor)
			if batch == nil {
				break
			}
			frames += int64(len(batch.Packets))
			data += int64(batch.DataPackets())
			cursor = batch.End
		}
		return start, frames, data
	})}
	return rec
}

// pacerBenchRow times reps runs of rep — which returns when its timed
// part began and how many frames, and data frames among them, it
// built — and folds them into one record.
func pacerBenchRow(name string, reps int, rep func() (start time.Time, frames, data int64)) BenchRecord {
	rec := BenchRecord{Benchmark: name, Hosts: 1}
	perFrame := stats.NewSample(reps)
	var frames, dataFrames int64
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		repStart, repFrames, repData := rep()
		frames += repFrames
		dataFrames += repData
		if repFrames > 0 {
			perFrame.Add(float64(time.Since(repStart).Nanoseconds()) / float64(repFrames))
		}
	}
	rec.TotalNs = time.Since(start).Nanoseconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.Requests = int(frames)
	rec.Accepted = int(dataFrames)
	if frames > 0 {
		rec.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / frames
	}
	rec.MeanNs = int64(perFrame.Mean())
	rec.P50Ns = int64(perFrame.Percentile(50))
	rec.P99Ns = int64(perFrame.Percentile(99))
	rec.MaxNs = int64(perFrame.Max())
	return rec
}

// NetsimBenchParams configures the packet-simulator microbenchmark
// ("netsimub"): reps of a cross-rack permutation blast through a small
// fabric, measuring the discrete-event engine's wall-clock cost per
// simulated packet.
type NetsimBenchParams struct {
	// PacketsPerHost injected per host per rep.
	PacketsPerHost int
	// Reps is the sample size (one ns/packet sample per rep).
	Reps int
}

// DefaultNetsimBenchParams blasts 1000 packets per host across an
// 8-host, 2-pod fabric, 25 times.
func DefaultNetsimBenchParams() NetsimBenchParams {
	return NetsimBenchParams{PacketsPerHost: 1000, Reps: 25}
}

// benchGen is a self-rescheduling per-host packet source: it sends one
// arena packet and re-arms itself at the line-rate gap until its quota
// is spent. Generator-style injection keeps the event heap a few
// entries deep (one pending event per host) instead of pre-scheduling
// every send as its own closure, and together with FreeOnDeliver it
// makes the steady-state hot path allocation-free.
type benchGen struct {
	host      *netsim.Host
	dst       int
	size      int
	remaining int
	gapNs     int64
	srcVM     int
	fn        func() // == send, bound once
}

func (g *benchGen) send() {
	sim := g.host.Sim()
	p := sim.AllocPacket()
	p.Src = g.host.ID
	p.SrcVM = g.srcVM
	p.Dst = g.dst
	p.DstVM = g.dst
	p.Size = g.size
	g.host.Send(p)
	g.remaining--
	if g.remaining > 0 {
		sim.After(g.gapNs, g.fn)
	}
}

// RunNetsimBench measures the event engine end to end: scheduling,
// queueing, per-hop forwarding and delivery. One op is one simulated
// packet; each rep injects a line-rate permutation (host h to host
// h+3 mod N, always crossing at least a rack boundary) via per-host
// generators and runs the simulator until the fabric drains,
// contributing one ns/packet sample. The network is built once — reps
// extend simulated time, as a long-running simulation would.
func RunNetsimBench(p NetsimBenchParams) (BenchRecord, error) {
	if p.Reps <= 0 {
		p.Reps = DefaultNetsimBenchParams().Reps
	}
	if p.PacketsPerHost <= 0 {
		p.PacketsPerHost = DefaultNetsimBenchParams().PacketsPerHost
	}
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 2,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 150e3,
		RackOversub:    1,
		PodOversub:     1,
	})
	if err != nil {
		return BenchRecord{}, err
	}
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	hosts := len(nw.Hosts)
	var deliveredCount int64
	for _, h := range nw.Hosts {
		h.OnDeliver = func(*netsim.Packet, int64) { deliveredCount++ }
		h.FreeOnDeliver = true
	}

	const size = 1500
	// Frame time at line rate; senders pace themselves so queues stay
	// shallow and the cost measured is the engine, not drop handling.
	gapNs := int64(float64(size*8) / (10 * gbps * 8) * 1e9)
	gens := make([]*benchGen, hosts)
	for h := 0; h < hosts; h++ {
		gens[h] = &benchGen{host: nw.Hosts[h], dst: (h + 3) % hosts, size: size, gapNs: gapNs}
		gens[h].fn = gens[h].send
	}
	perPacket := stats.NewSample(p.Reps)
	rec := BenchRecord{Benchmark: "netsimub", Hosts: hosts}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for rep := 0; rep < p.Reps; rep++ {
		repStart := time.Now()
		base := nw.Sim.Now()
		for h := 0; h < hosts; h++ {
			gens[h].remaining = p.PacketsPerHost
			nw.Sim.At(base, gens[h].fn)
		}
		// Drain: horizon comfortably past the last injection.
		nw.Sim.Run(base + int64(p.PacketsPerHost)*gapNs + int64(1e6))
		perPacket.Add(float64(time.Since(repStart).Nanoseconds()) / float64(p.PacketsPerHost*hosts))
	}
	rec.TotalNs = time.Since(start).Nanoseconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.Requests = p.Reps * p.PacketsPerHost * hosts
	rec.Accepted = int(deliveredCount)
	if rec.Requests > 0 {
		rec.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(rec.Requests)
	}
	rec.MeanNs = int64(perPacket.Mean())
	rec.P50Ns = int64(perPacket.Percentile(50))
	rec.P99Ns = int64(perPacket.Percentile(99))
	rec.MaxNs = int64(perPacket.Max())
	return rec, nil
}

// Render formats a benchmark record the way PlacementBenchResult does,
// one line per row.
func (r BenchRecord) Render() string {
	out := fmt.Sprintf(
		"%s: hosts=%d requests=%d accepted=%d mean=%.0fns p50=%.0fns p99=%.0fns max=%.0fns total=%.2fs allocs/op=%d\n",
		r.Benchmark, r.Hosts, r.Requests, r.Accepted,
		float64(r.MeanNs), float64(r.P50Ns), float64(r.P99Ns), float64(r.MaxNs),
		float64(r.TotalNs)/1e9, r.AllocsPerOp)
	for _, row := range r.Rows {
		out += row.Render()
	}
	return out
}

// Row returns the named row of the record.
func (r BenchRecord) Row(name string) (BenchRecord, bool) {
	for _, row := range r.Rows {
		if row.Benchmark == name {
			return row, true
		}
	}
	return BenchRecord{}, false
}
