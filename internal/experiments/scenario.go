// Package experiments reproduces every table and figure in Silo's
// evaluation (§6). Each experiment is a pure function from the few
// settings silo-bench turns (a seed, a duration, a request count) to a
// result struct plus a text renderer, shared by the cmd/silo-bench CLI
// and the root testing.B benchmarks; the rest of each setup is
// constants in its runner. Every
// packet-level one is a Scenario (this file) plus a reducer over its
// Run. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/obs/introspect"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/workload"
)

// TenGbE returns the evaluation's fabric: 10 GbE links, 312 KB switch
// port buffers, 62.5 KB (50 µs) NIC queues.
func TenGbE(pods, racksPerPod, serversPerRack, slotsPerServer int, rackOversub, podOversub float64) topology.Config {
	return topology.Config{
		Pods:           pods,
		RacksPerPod:    racksPerPod,
		ServersPerRack: serversPerRack,
		SlotsPerServer: slotsPerServer,
		LinkBps:        10 * units.Gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    rackOversub,
		PodOversub:     podOversub,
	}
}

// Scenario is one packet-level run as plain data: a topology, a scheme,
// the tenants offered to it with what they send, what breaks, what is
// observed, and for how long. Every figure runner and silo-sim build
// one and hand it to Build / RunScenario; nothing in it is a func, so a
// scenario can be tabulated, generated and shrunk.
type Scenario struct {
	Topology topology.Config
	Scheme   core.Scheme
	// Seed seeds the one generator the drivers draw from, in tenant
	// order.
	Seed uint64
	// Tenants are offered for admission in order.
	Tenants []Tenant
	// TargetVMs, when > 0, skips a tenant that would take the admitted
	// VM count past it (the paper fills to a target occupancy).
	TargetVMs int
	// VMBase is the first VM id handed to a tenant without one of its
	// own; each next tenant starts VMGap ids past the previous one's
	// last.
	VMBase, VMGap int
	// HorizonNs ends the offered load; the run continues DrainNs longer
	// so retransmissions complete.
	HorizonNs, DrainNs int64

	// Faults is a schedule in faults.ParseSchedule syntax ("" = none).
	// When the placer can recover (the Silo manager), every down event
	// triggers Recover DetectNs later and every up event returns the
	// repaired servers to the pool.
	Faults   string
	DetectNs int64
	// Redeploy makes recovery a data-plane drill: relocated and degraded
	// tenants are re-deployed on their new placement (new VM ids, hose
	// re-coordinated, driver restarted), and ResyncBytes of raw unpaced
	// frames converge on every new VM from each of ResyncSources
	// surviving out-of-rack hosts. Off, recovery is control-plane only.
	Redeploy                   bool
	ResyncBytes, ResyncSources int

	Planes Planes
}

// Tenant is one admission request and what the tenant does once
// deployed.
type Tenant struct {
	Spec tenant.Spec
	// VMBase is the tenant's first VM id (0 = the scenario's next free
	// base).
	VMBase int
	// Servers, when set, is a fixed layout (the testbed's): the tenant
	// is adopted there without asking the placer.
	Servers []int
	// MinRTONs overrides the scheme's minimum RTO (0 = the scheme's).
	MinRTONs int64
	// AuditDelayBoundSec, when > 0, audits deliveries against a bound
	// tighter than the admitted d.
	AuditDelayBoundSec float64
	Hose               Hose
	Driver             Driver
}

// HoseKind selects how a paced tenant's per-destination rates are set.
type HoseKind int

// Hose coordination kinds. The production system converges EyeQ-style
// on live demand (HoseDynamic); fair share and peak are the two static
// fixed points of that loop (see core.Controller.CoordinateHose and
// CoordinateHosePeak).
const (
	HoseNone HoseKind = iota
	HoseFairShare
	HosePeak
	HoseDynamic
)

// Hose is a tenant's hose coordination: a static fixed point over
// Pattern, or the dynamic loop at EpochNs.
type Hose struct {
	Kind    HoseKind
	Pattern workload.Pattern
	EpochNs int64
}

// DriverKind selects a tenant's traffic generator, one of the four
// workload.Tally drivers: OLDI rounds (class A), the shuffle (class B,
// netperf, best-effort), synchronized bursts at VM 0 (Figure 5 at
// packet level, burst stress, the drill's steady load), and memcached
// ETC with VM 0 the server (Figures 1 and 11).
type DriverKind int

// Driver kinds.
const (
	DriverNone DriverKind = iota
	DriverOLDI
	DriverShuffle
	DriverBurst
	DriverETC
)

// Driver is a generator with its parameters.
type Driver struct {
	Kind     DriverKind
	MsgBytes int
	// SplitRand (OLDI) gives the driver its own generator, split off the
	// scenario's when the driver starts, so concurrent tenants' rounds
	// do not perturb each other; otherwise it draws from the scenario's
	// directly.
	SplitRand bool
	// PeriodNs (burst) repeats the burst; 0 fires once. RandomPhase
	// delays the first burst by a uniform draw below PeriodNs.
	// RemoteOnly leaves out senders that share VM 0's server (they never
	// cross its down-port).
	PeriodNs    int64
	RandomPhase bool
	RemoteOnly  bool
	// TargetBps (ETC) is the aggregate offered load.
	TargetBps float64
}

// Planes selects the observation planes attached to the run.
type Planes struct {
	// Audit checks every delivered packet's NIC-to-NIC delay against the
	// tenant's admitted d. The other planes need it.
	Audit bool
	// TraceSampleN > 0 attaches the flight recorder, recording 1 in N
	// packets.
	TraceSampleN int
	// Introspect attaches per-VM envelope estimators and per-port
	// guarantee margins (bounds from the Silo manager when there is
	// one).
	Introspect bool
	// Windows closes a window every obs.WindowNs of simulated time:
	// each tenant with new violations gets one window event naming the
	// window's culprit port, appended to Run.Violations.
	Windows bool
	// Incidents collects violations into a log and correlates them into
	// root-caused incidents, merging violations closer than
	// incidentMergeNs.
	Incidents bool
}

const (
	// faultGraceNs extends each injected outage's window past its
	// repair: violations of the recovery storm that follows still count
	// as the fault's.
	faultGraceNs = 5e6
	// incidentMergeNs is the incident clustering gap: two violations
	// (or a violation and a fault window) closer than this on the
	// simulated clock belong to one incident, so Figure 5's overload,
	// one burst every millisecond, chains into one incident.
	incidentMergeNs = 2e6
)

// Env is what a caller injects that is not scenario data: run
// provenance, and a placer of its own over a tree it built (Silo
// placement under an unpaced scheme) — the two go together, a placer
// needs the tree it was made over. The zero Env runs the scheme's own
// placer unobserved.
type Env struct {
	Meta   *obs.RunMeta
	Tree   *topology.Tree
	Placer placement.Algorithm
}

// TenantRun is an admitted tenant's live state and outcome: what its
// driver tallied, plus where recovery left it.
type TenantRun struct {
	Tenant Tenant
	// Handle is the tenant's current deployment.
	Handle *core.Handle
	workload.Tally
	// BytesReceived across the tenant's endpoints (filled by Finish).
	BytesReceived int64
	// Verdict and Degradation are the last recovery's outcome for the
	// tenant ("ok" and "-" when no fault touched it); RecoveredAtNs is
	// when the first message completed on a re-deployed placement (-1
	// until then).
	Verdict, Degradation string
	RecoveredAtNs        int64

	// epoch invalidates the previous deployment's driver on redeploy.
	epoch int
}

// Run is a built scenario: the network with tenants deployed, planes
// attached and drivers scheduled. Execute advances it; Finish harvests.
type Run struct {
	Scenario Scenario
	Tree     *topology.Tree
	Net      *netsim.Network
	Ctl      *core.Controller
	// Manager is the Silo manager doing the admission, nil under the
	// baseline placers.
	Manager *placement.Manager
	// Tenants are the admitted tenants in offer order; Rejected holds
	// one error per tenant admission control turned down.
	Tenants  []*TenantRun
	Rejected []error

	Audit *obs.GuaranteeAuditor
	// Violations is the run's one violation stream: the audit tap's
	// events (with the incident plane) and the window tick's, which
	// Correlate sorts canonically.
	Violations []obs.ViolationEvent
	Flight     *obs.FlightRecorder
	Intro      *introspect.Introspector
	Injector   *faults.Injector
	// Recoveries holds one report per down event, in event order.
	Recoveries []*placement.RecoveryReport

	// Filled by Finish: the assembled flight trace with its violating
	// spans, the introspection snapshot and the incident report.
	Ports          []obs.PortMeta
	Spans          []obs.FlightSpan
	SpanViolations []*obs.FlightSpan
	Snapshot       *introspect.Snapshot
	Incidents      *incident.Report

	env        Env
	fabric     *transport.Fabric
	rng        *stats.Rand
	nextVM     int
	resyncWave int
	// The window tick's state: the port-window tracker naming each
	// window's culprit, the audited tenants sorted by ID with their
	// violation counts at the last close, and the last window's end.
	tracker       *netsim.PortWindowTracker
	windowed      []*obs.TenantAudit
	windowedViols []int64
	windowEnd     int64
}

// RunScenario builds, executes and harvests a scenario.
func RunScenario(sc Scenario, env Env) (*Run, error) {
	r, err := Build(sc, env)
	if err != nil {
		return nil, err
	}
	r.Execute(context.Background())
	r.Finish()
	return r, nil
}

// Build instantiates a scenario up to the first event: tree → network →
// fabric → controller → admit-or-skip and deploy each tenant → attach
// planes → coordinate hoses → schedule faults and the window tick →
// start drivers. A tenant admission control rejects is skipped (and
// noted in Rejected); any other placement error fails the build.
func Build(sc Scenario, env Env) (*Run, error) {
	tree := env.Tree
	if tree == nil {
		var err error
		if tree, err = topology.New(sc.Topology); err != nil {
			return nil, err
		}
	}
	nw := netsim.Build(netsim.NewSim(), tree, sc.Scheme.NetOptions())
	r := &Run{
		Scenario: sc,
		Tree:     tree,
		Net:      nw,
		Ctl:      core.NewWith(tree, sc.Scheme, env.Placer),
		env:      env,
		fabric:   transport.NewFabric(nw),
		rng:      stats.NewRand(sc.Seed),
		nextVM:   sc.VMBase,
	}
	r.Manager, _ = r.Ctl.Algorithm().(*placement.Manager)

	admitted := 0
	for _, t := range sc.Tenants {
		if sc.TargetVMs > 0 && admitted+t.Spec.VMs > sc.TargetVMs {
			continue
		}
		pl := &tenant.Placement{Spec: t.Spec, Servers: t.Servers}
		if t.Servers == nil {
			var err error
			pl, err = r.Ctl.Algorithm().Place(t.Spec)
			if errors.Is(err, placement.ErrRejected) {
				r.Rejected = append(r.Rejected, fmt.Errorf("tenant %s rejected: %w", t.Spec.Name, err))
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("placing tenant %s: %w", t.Spec.Name, err)
			}
		}
		admitted += t.Spec.VMs
		tr := &TenantRun{Tenant: t, Verdict: "ok", Degradation: "-", RecoveredAtNs: -1}
		r.deploy(tr, pl)
		r.Tenants = append(r.Tenants, tr)
	}

	if sc.Planes.Audit {
		r.Audit = obs.NewGuaranteeAuditor()
		for _, tr := range r.Tenants {
			r.observe(tr)
		}
		obs.AttachDelayAudit(nw, r.Audit, r.Ctl.TenantOfVM)
	}
	if sc.Planes.Incidents {
		// One violation stream: the auditor's per-delivery tap and the
		// window tick's events. Wired before the run — the tap is read
		// without locks on the delivery path. The slice grows with the
		// violations the run records.
		r.Audit.SetViolationTap(func(ev obs.ViolationEvent) { r.Violations = append(r.Violations, ev) })
	}
	if sc.Planes.TraceSampleN > 0 {
		r.Flight = obs.NewFlightRecorder(0, sc.Planes.TraceSampleN)
		obs.AttachFlightRecorder(nw, r.Flight)
	}
	if sc.Planes.Introspect {
		// Bounds reflect admission at attach time; a mid-run fault that
		// loosens them shows up as a negative margin, which is the point.
		r.Intro = introspect.Attach(nw)
		for _, tr := range r.Tenants {
			g := tr.Handle.Spec.Guarantee
			adm := introspect.Envelope{RateBps: g.BandwidthBps, BurstBytes: g.BurstBytes}
			for i, vmID := range tr.Handle.VMIDs {
				r.Intro.TrackVM(tr.Handle.Placement.Servers[i], vmID, tr.Handle.Spec.ID, adm)
			}
		}
		if r.Manager != nil {
			r.Intro.BindPlacement(r.Manager)
		}
	}
	for _, tr := range r.Tenants {
		r.coordinate(tr)
	}
	if sc.Faults != "" {
		if err := r.injectFaults(); err != nil {
			return nil, err
		}
	}
	if sc.Planes.Windows {
		r.startWindows()
	}
	for _, tr := range r.Tenants {
		r.startDriver(tr, false)
	}
	return r, nil
}

// deploy adopts a placement for the tenant and instantiates it at the
// tenant's VM base, or the scenario's next free one.
func (r *Run) deploy(tr *TenantRun, pl *tenant.Placement) {
	base := tr.Tenant.VMBase
	if base == 0 || tr.epoch > 0 {
		base = r.nextVM
		r.nextVM += pl.Spec.VMs + r.Scenario.VMGap
	}
	topt := r.Scenario.Scheme.TransportOptions()
	if tr.Tenant.MinRTONs > 0 {
		topt.MinRTONs = tr.Tenant.MinRTONs
	}
	tr.Handle = r.Ctl.Adopt(pl)
	r.Ctl.Deploy(r.Net, r.fabric, tr.Handle, base, topt)
}

// observe admits the tenant's current deployment into the audit.
func (r *Run) observe(tr *TenantRun) {
	r.Audit.Admit(tr.Handle.Spec.ID, tr.Handle.Spec.Guarantee.DelayBound)
	if d := tr.Tenant.AuditDelayBoundSec; d > 0 {
		r.Audit.SetDelayBound(tr.Handle.Spec.ID, d)
	}
}

// coordinate installs the tenant's hose rates (nothing to do on an
// unpaced deployment).
func (r *Run) coordinate(tr *TenantRun) {
	if !r.Scenario.Scheme.Paced() {
		return
	}
	switch h := tr.Tenant.Hose; h.Kind {
	case HoseFairShare:
		r.Ctl.CoordinateHose(r.Net, tr.Handle, h.Pattern)
	case HosePeak:
		r.Ctl.CoordinateHosePeak(r.Net, tr.Handle, h.Pattern)
	case HoseDynamic:
		r.Ctl.StartHoseCoordination(r.Net, tr.Handle, h.EpochNs)
	}
}

// injectFaults schedules the fault plan and closes the control loop
// around it.
func (r *Run) injectFaults() error {
	sc := r.Scenario
	sched, err := faults.ParseSchedule(sc.Faults)
	if err != nil {
		return err
	}
	r.Injector = faults.NewInjector(r.Net)
	r.Injector.GraceNs = faultGraceNs
	if m := r.Manager; m != nil {
		r.Injector.OnEvent = func(ev faults.Event) {
			r.Net.Sim.After(sc.DetectNs, func() {
				// Both calls fail only with placement.ErrLogFailed, a
				// commit hook's failure, and this manager has no hook.
				if !ev.Kind.IsDown() {
					_ = m.RestoreServers(ev.Servers...)
					return
				}
				rep, _ := m.Recover(ev.Servers, ev.Ports)
				r.Recoveries = append(r.Recoveries, rep)
				r.recovered(rep)
			})
		}
	}
	return r.Injector.Apply(sched)
}

// recovered applies a recovery report: every affected tenant gets its
// verdict, and in a data-plane drill each survivor is re-deployed where
// recovery put it, judged against its (possibly loosened) bound from
// here on, and rebuilt by a resync storm.
func (r *Run) recovered(rep *placement.RecoveryReport) {
	for _, rec := range rep.Affected {
		tr, ok := r.tenant(rec.ID)
		if !ok {
			continue
		}
		tr.Verdict = rec.Verdict.String()
		if rec.Degradation != "" {
			tr.Degradation = rec.Degradation
		}
		if !r.Scenario.Redeploy {
			continue
		}
		tr.epoch++ // stops the old placement's driver
		if rec.Verdict == placement.VerdictEvicted {
			continue
		}
		spec := tr.Tenant.Spec
		spec.Guarantee = rec.NewGuarantee
		r.deploy(tr, &tenant.Placement{Spec: spec, Servers: rec.NewServers})
		r.coordinate(tr)
		if r.Audit != nil {
			r.observe(tr)
			// A dropped bound clears the audited bound.
			r.Audit.SetDelayBound(rec.ID, spec.Guarantee.DelayBound)
		}
		r.startDriver(tr, true)
		for i, vmID := range tr.Handle.VMIDs {
			dstHost, vmID := rec.NewServers[i], vmID
			r.Net.Sim.After(int64(r.resyncWave)*60_000, func() { r.fireResync(dstHost, vmID) })
			r.resyncWave++
		}
	}
}

// startWindows closes windows on the simulation clock, with the live
// port-window tracker naming the culprit port of each window. Every
// tenant is audited by now, and redeploying one keeps its audit entry.
func (r *Run) startWindows() {
	sc := r.Scenario
	r.tracker = netsim.AttachPortWindowTracker(r.Net)
	r.windowed = r.Audit.Tenants()
	r.windowedViols = make([]int64, len(r.windowed))
	r.Net.Sim.Every(obs.WindowNs, sc.HorizonNs+sc.DrainNs, r.closeWindow)
}

// closeWindow ends the current window at now: each tenant the auditor
// counted new violations for since the last close gets one window
// event, judged against its bound at the close. The appends amortize
// to zero allocations per window.
func (r *Run) closeWindow(now int64) {
	port, queueNs := r.tracker.WorstPort()
	for i, t := range r.windowed {
		if n := t.Violations - r.windowedViols[i]; n > 0 {
			r.Violations = append(r.Violations, obs.ViolationEvent{
				TimeNs: now, Source: obs.SourceWindow, Tenant: t.ID,
				VM: -1, SrcVM: -1,
				WindowStartNs: r.windowEnd, WindowEndNs: now,
				BoundNs: t.DelayBoundNs, Count: n,
				CulpritPort: port, CulpritQueueNs: queueNs,
			})
		}
		r.windowedViols[i] = t.Violations
	}
	r.tracker.Reset()
	r.windowEnd = now
}

// Execute runs to the horizon plus the drain, or until ctx is
// cancelled.
func (r *Run) Execute(ctx context.Context) {
	r.Net.RunCtx(ctx, r.Scenario.HorizonNs+r.Scenario.DrainNs)
}

// Finish harvests what the planes recorded and the tenants received.
func (r *Run) Finish() {
	if r.tracker != nil {
		// The run ends mid-window when it was cancelled or the window does
		// not divide its length: close that last partial window too.
		if now := r.Net.Sim.Now(); now > r.windowEnd {
			r.closeWindow(now)
		}
		if r.Injector != nil {
			// Window events overlapping an injected outage are labeled
			// with the fault; the injector answers after the run as it
			// would have during it.
			for i := range r.Violations {
				if ev := &r.Violations[i]; ev.Source == obs.SourceWindow {
					ev.Fault, _ = r.Injector.FaultIn(ev.WindowStartNs, ev.WindowEndNs)
				}
			}
		}
	}
	for _, tr := range r.Tenants {
		h := tr.Handle
		for i, ep := range h.Endpoints {
			for j, peer := range h.VMIDs {
				if i != j {
					tr.BytesReceived += ep.BytesReceived(peer)
				}
			}
		}
	}
	if r.Flight != nil {
		r.Ports = obs.PortsOf(r.Net)
		r.Spans = obs.AssembleFlight(r.Flight.Events(), r.Ports)
		r.SpanViolations = obs.AnnotateSpans(r.Spans, r.Audit, r.Ctl.TenantOfVM)
	}
	if r.Intro != nil {
		s := r.Intro.Snapshot()
		s.Meta = r.env.Meta
		r.Snapshot = &s
	}
	if r.Scenario.Planes.Incidents {
		// The one correlation, over the finished streams: the full
		// violation stream, the fault log, and the introspection snapshot as verdict evidence (without it,
		// incidents that need envelope evidence stay honestly
		// unexplained).
		in := incident.Inputs{
			Violations: r.Violations,
			Snapshot:   r.Snapshot,
			Ports:      obs.PortsOf(r.Net),
			Meta:       r.env.Meta,
		}
		if r.Injector != nil {
			in.Faults = incident.FaultWindowsFromEvents(r.Injector.Events(), r.Injector.GraceNs)
		}
		r.Incidents = incident.Correlate(incident.Config{MergeNs: incidentMergeNs}, in)
	}
}

// tenant returns the admitted tenant with the given spec ID.
func (r *Run) tenant(id int) (*TenantRun, bool) {
	for _, tr := range r.Tenants {
		if tr.Tenant.Spec.ID == id {
			return tr, true
		}
	}
	return nil, false
}
