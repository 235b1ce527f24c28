package introspect

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
)

// Config tunes the introspector.
type Config struct {
	// EpochNs is the sliding-epoch length for the per-VM envelope fit
	// (default 1 ms).
	EpochNs int64
	// ToleranceBytes pads the envelope-violation check: the pacer's
	// bucket admits at least one MTU frame even when S is smaller, so
	// a frame of tolerance avoids flagging conforming VMs (default
	// 1518).
	ToleranceBytes float64
}

func (c Config) withDefaults() Config {
	if c.EpochNs <= 0 {
		c.EpochNs = 1e6
	}
	if c.ToleranceBytes <= 0 {
		c.ToleranceBytes = 1518
	}
	return c
}

// Introspector wires the introspection plane into a built network: a
// spine subscriber for port headroom (and NIC arrivals, for unpaced
// VMs' envelope estimation), pacer commit taps for paced VMs' envelope
// estimation, and an optional metrics registry for live gauges.
type Introspector struct {
	nw  *netsim.Network
	reg *obs.Registry
	cfg Config

	watches []*portWatch

	vms     []*VMEstimator
	vmBySrc map[int]*VMEstimator // unpaced VMs keyed by Packet.SrcVM

	upLo, upHi int // NIC-up port range: only NICs feed the unpaced tap
}

// Attach subscribes the introspection plane to every port of nw. reg
// may be nil to run without live gauges. Hot-path cost per packet: one
// call and a handful of integer compares, zero allocations.
func Attach(nw *netsim.Network, reg *obs.Registry, cfg Config) *Introspector {
	in := &Introspector{
		nw:      nw,
		reg:     reg,
		cfg:     cfg.withDefaults(),
		watches: make([]*portWatch, len(nw.Queues)),
		vmBySrc: make(map[int]*VMEstimator),
	}
	in.upLo, in.upHi = nw.Tree.ServerUpPortRange()
	for pid, q := range nw.Queues {
		if q != nil {
			in.watches[pid] = &portWatch{q: q}
		}
	}
	nw.Sim.Subscribe(in.observe, netsim.EvPortEnqueue, netsim.EvPortTransmit)
	in.registerMetrics()
	return in
}

// observe is the plane's spine subscriber.
func (in *Introspector) observe(ev netsim.Event) {
	w, p := in.watches[ev.At], ev.P
	now := in.nw.Sim.Now()
	if ev.Kind == netsim.EvPortTransmit {
		w.onTransmit(now, p, ev.Arg)
		return
	}
	if int(ev.Arg)+p.Size <= w.q.BufferBytes {
		w.onEnqueue(now)
	}
	if pid := int(ev.At); pid >= in.upLo && pid < in.upHi && !p.Void && len(in.vmBySrc) > 0 {
		if est, ok := in.vmBySrc[p.SrcVM]; ok {
			est.Observe(now, p.Size)
		}
	}
}

// TrackVM registers one VM for envelope estimation against its
// admitted envelope. A paced VM (pacer attached to the host) is
// observed at its commit tap — the exact emission schedule the {B, S}
// buckets authorized; an unpaced VM is observed at its NIC arrivals,
// keyed by Packet.SrcVM.
func (in *Introspector) TrackVM(hostID, vmID, tenantID int, adm Envelope) *VMEstimator {
	est := &VMEstimator{
		VMID:     vmID,
		TenantID: tenantID,
		Admitted: adm,
		epochNs:  in.cfg.EpochNs,
		tolBytes: in.cfg.ToleranceBytes,
	}
	in.vms = append(in.vms, est)
	if vm, ok := in.nw.Hosts[hostID].VM(vmID); ok {
		vm.SetCommitTap(est.Observe)
	} else {
		in.vmBySrc[vmID] = est
	}
	if in.reg != nil {
		vmL := strconv.Itoa(vmID)
		tnL := strconv.Itoa(tenantID)
		in.reg.GaugeFunc("silo_introspect_envelope_rate_bps",
			"fitted long-run emission rate (bytes/sec)",
			func() float64 { return est.Snapshot().FittedRateBps },
			"vm", vmL, "tenant", tnL)
		in.reg.GaugeFunc("silo_introspect_envelope_burst_bytes",
			"minimal burst enveloping the observed stream at the admitted rate",
			func() float64 { return est.Snapshot().FittedBurstBytes },
			"vm", vmL, "tenant", tnL)
		in.reg.GaugeFunc("silo_introspect_envelope_violation",
			"1 when the fitted envelope exceeds the admitted {B, S}",
			func() float64 {
				if est.Snapshot().Violated {
					return 1
				}
				return 0
			},
			"vm", vmL, "tenant", tnL)
	}
	return est
}

// BindPlacement derives every watched port's analytic bounds from the
// placement manager's currently admitted aggregate, via the netcal
// closed forms. Call it after placements settle (and again after
// recovery churn) — the bounds are pure functions of the admitted
// set. Infinite bounds (possible only on unadmitted or degenerate
// aggregates) are stored as -1: "no finite bound".
func (in *Introspector) BindPlacement(m *placement.Manager) {
	for pid, w := range in.watches {
		if w == nil {
			continue
		}
		b := boundsFromLoad(m.PortLoad(pid), m.PortRateBps(pid), m.PortCapacitySec(pid))
		if math.IsInf(b.QueueBoundSec, 1) {
			b.QueueBoundSec = -1
		}
		if math.IsInf(b.BacklogBytes, 1) {
			b.BacklogBytes = -1
		}
		if math.IsInf(b.BusyPeriodSec, 1) {
			b.BusyPeriodSec = -1
		}
		w.bounds = b
		w.bounded = b.Tenants > 0
	}
	if in.reg != nil {
		in.registerPortMetrics()
	}
}

// SetPortBounds installs bounds for one port directly (benchmarks and
// tests that run without a placement manager). Like BindPlacement it
// registers the port's margin gauge; re-binding is idempotent because
// the registry dedupes on (name, labels).
func (in *Introspector) SetPortBounds(pid int, b PortBounds) {
	if w := in.watches[pid]; w != nil {
		w.bounds = b
		w.bounded = true
		if in.reg != nil {
			in.registerPortMetrics()
		}
	}
}

func (in *Introspector) registerMetrics() {
	if in.reg == nil {
		return
	}
	in.reg.GaugeFunc("silo_introspect_envelope_violations",
		"tracked VMs whose fitted envelope exceeds the admitted {B, S}",
		func() float64 {
			n := 0
			for _, est := range in.vms {
				if est.Snapshot().Violated {
					n++
				}
			}
			return float64(n)
		})
	in.reg.GaugeFunc("silo_introspect_min_margin_bytes",
		"least backlog-bound margin across bounded ports (bytes)",
		func() float64 {
			mb, _ := in.minMargin()
			return mb
		})
	in.reg.GaugeFunc("silo_introspect_min_margin_port",
		"directed-port ID holding the least backlog-bound margin",
		func() float64 {
			_, pid := in.minMargin()
			return float64(pid)
		})
}

func (in *Introspector) registerPortMetrics() {
	for pid, w := range in.watches {
		if w == nil || !w.bounded {
			continue
		}
		w := w
		pidL := strconv.Itoa(pid)
		in.reg.GaugeFunc("silo_introspect_port_margin_bytes",
			"backlog bound minus observed high-water mark (bytes)",
			func() float64 { return w.bounds.BacklogBytes - float64(w.q.Stats.HighWaterBytes) },
			"port", w.q.Name, "id", pidL)
	}
}

// minMargin returns the least backlog margin over bounded ports with
// finite bounds, and the port holding it (-1 when no port is bounded).
func (in *Introspector) minMargin() (float64, int) {
	best, bestPid := math.Inf(1), -1
	for pid, w := range in.watches {
		if w == nil || !w.bounded || w.bounds.BacklogBytes < 0 {
			continue
		}
		if m := w.bounds.BacklogBytes - float64(w.q.Stats.HighWaterBytes); m < best {
			best, bestPid = m, pid
		}
	}
	if bestPid < 0 {
		return 0, -1
	}
	return best, bestPid
}

// Snapshot is the introspection plane's full deterministic state dump:
// envelopes in VM registration order, ports ascending by ID.
type Snapshot struct {
	// Meta records which run produced the snapshot (tool, build
	// revision, seed, flags). Stamped by the exporting CLI, nil for
	// in-process snapshots; excluded from Render so determinism
	// comparisons see only simulation-derived bytes.
	Meta *obs.RunMeta `json:"meta,omitempty"`

	Envelopes []VMEnvelope   `json:"envelopes"`
	Ports     []PortHeadroom `json:"ports"`

	Violations     int     `json:"violations"`
	MinMarginPort  int     `json:"min_margin_port"`
	MinMarginBytes float64 `json:"min_margin_bytes"`
}

// Snapshot captures the current state. Call it between runs or from a
// simulation event, never concurrently with Run.
func (in *Introspector) Snapshot() Snapshot {
	var s Snapshot
	for _, est := range in.vms {
		env := est.Snapshot()
		if env.Violated {
			s.Violations++
		}
		s.Envelopes = append(s.Envelopes, env)
	}
	for pid, w := range in.watches {
		if w == nil {
			continue
		}
		active := w.q.Stats.EnqueuedPkts > 0
		if !w.bounded && !active {
			continue
		}
		maxBusy, busyCnt := w.busyAt(w.q.Sim().Now())
		ph := PortHeadroom{
			Port:        pid,
			Name:        w.q.Name,
			Bounded:     w.bounded,
			Bounds:      w.bounds,
			HWMBytes:    w.q.Stats.HighWaterBytes,
			MaxBusyNs:   maxBusy,
			BusyPeriods: busyCnt,
			SentPkts:    w.q.Stats.SentPkts,
		}
		if w.bounded && w.bounds.BacklogBytes >= 0 {
			ph.MarginBytes = w.bounds.BacklogBytes - float64(ph.HWMBytes)
		}
		if w.bounded && w.bounds.BusyPeriodSec >= 0 {
			ph.BusyMarginNs = w.bounds.BusyPeriodSec*1e9 - float64(maxBusy)
		}
		s.Ports = append(s.Ports, ph)
	}
	s.MinMarginBytes, s.MinMarginPort = in.minMargin()
	return s
}

// PortFor returns the headroom entry for a port ID, if present.
func (s *Snapshot) PortFor(pid int) (PortHeadroom, bool) {
	for _, p := range s.Ports {
		if p.Port == pid {
			return p, true
		}
	}
	return PortHeadroom{}, false
}

// EnvelopeFor returns the envelope entry for a VM ID, if present.
func (s *Snapshot) EnvelopeFor(vmID int) (VMEnvelope, bool) {
	for _, e := range s.Envelopes {
		if e.VMID == vmID {
			return e, true
		}
	}
	return VMEnvelope{}, false
}

// Render formats the snapshot as the CLI report.
func (s *Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== introspection: envelopes (%d tracked, %d violated) ===\n", len(s.Envelopes), s.Violations)
	if len(s.Envelopes) > 0 {
		fmt.Fprintf(&b, "%-8s %-7s %13s %13s %13s %13s %10s %s\n",
			"vm", "tenant", "admB(MBps)", "fitB(MBps)", "admS(KB)", "fitS*(KB)", "emissions", "verdict")
		for _, e := range s.Envelopes {
			verdict := "ok"
			if e.Violated {
				verdict = "VIOLATED"
			} else if e.Emissions == 0 {
				verdict = "idle"
			}
			fmt.Fprintf(&b, "%-8d %-7d %13.2f %13.2f %13.1f %13.1f %10d %s\n",
				e.VMID, e.TenantID, e.AdmittedRateBps/1e6, e.FittedRateBps/1e6,
				e.AdmittedBurstBytes/1e3, e.FittedBurstBytes/1e3, e.Emissions, verdict)
		}
	}
	fmt.Fprintf(&b, "=== introspection: port headroom ===\n")
	fmt.Fprintf(&b, "%-14s %-5s %3s %12s %12s %12s %11s %11s\n",
		"port", "id", "ten", "backlogB(KB)", "hwm(KB)", "margin(KB)", "busyB(µs)", "busy(µs)")
	for _, p := range s.Ports {
		if !p.Bounded {
			continue
		}
		blg, busy := "inf", "inf"
		if p.Bounds.BacklogBytes >= 0 {
			blg = fmt.Sprintf("%.1f", p.Bounds.BacklogBytes/1e3)
		}
		if p.Bounds.BusyPeriodSec >= 0 {
			busy = fmt.Sprintf("%.1f", p.Bounds.BusyPeriodSec*1e6)
		}
		fmt.Fprintf(&b, "%-14s %-5d %3d %12s %12.1f %12.1f %11s %11.1f\n",
			p.Name, p.Port, p.Bounds.Tenants, blg, float64(p.HWMBytes)/1e3,
			p.MarginBytes/1e3, busy, float64(p.MaxBusyNs)/1e3)
	}
	if s.MinMarginPort >= 0 {
		fmt.Fprintf(&b, "min margin: %.1f KB at port %d\n", s.MinMarginBytes/1e3, s.MinMarginPort)
	}
	return b.String()
}

// WriteFile writes the snapshot as JSON (the silo-sim sidecar that
// silo-trace -why joins against).
func (s *Snapshot) WriteFile(path string) error {
	// Ports are already ascending; keep envelopes sorted by VM for a
	// stable on-disk form regardless of registration order.
	sorted := *s
	sorted.Envelopes = append([]VMEnvelope(nil), s.Envelopes...)
	sort.Slice(sorted.Envelopes, func(i, j int) bool { return sorted.Envelopes[i].VMID < sorted.Envelopes[j].VMID })
	data, err := json.MarshalIndent(&sorted, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a snapshot written by WriteFile.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("introspect: parse %s: %w", path, err)
	}
	return &s, nil
}
