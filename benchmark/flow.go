package main

import (
	"time"

	silo "repro"
	"repro/internal/flowsim"
)

// flow_fig15 is one run of the flow-level simulator behind Fig. 15:
// 4 pods × 10 racks × 20 servers × 4 slots, Table-3 classes arriving
// as a Poisson process sized by Little's law for 90 % occupancy,
// placed by the Silo manager and served at their reserved rates.
const (
	flowPods           = 4
	flowRacksPerPod    = 10
	flowServersPerRack = 20
	flowSlotsPerServer = 4
	flowAvgVMs         = 12
	flowEpochSec       = 2
	flowOccupancy      = 0.9
	// flowSimSecPerSec sizes the run: simulated seconds per host second
	// asked for, measured on the 2-core reference container.
	flowSimSecPerSec = 1000
)

// timedPlacer times every Place and Remove the flow simulator makes.
// It implements placement.Algorithm, the interface flowsim drives.
type timedPlacer struct {
	admissionLog
	e   *env
	ctl *silo.Controller
}

func (p *timedPlacer) Name() string { return "silo" }

func (p *timedPlacer) Place(spec silo.TenantSpec) (*silo.TenantPlacement, error) {
	sp := p.e.tr.begin("placement.admit")
	t0 := time.Now()
	pl, err := p.ctl.Placer().Place(spec)
	dt := time.Since(t0)
	p.e.tr.end(sp)
	var servers []int
	if err == nil {
		servers = pl.Servers
	}
	p.placed(dt, spec, servers, err)
	return pl, err
}

func (p *timedPlacer) Remove(id int) error {
	sp := p.e.tr.begin("placement.remove")
	t0 := time.Now()
	err := p.ctl.Placer().Remove(id)
	p.removed(time.Since(t0), err)
	p.e.tr.end(sp)
	return err
}

type flowInst struct {
	cfg    flowsim.Config
	placer *timedPlacer
	res    flowsim.Result
	mem    memDelta
}

func flowSetup(e *env) (instance, error) {
	sp := e.tr.begin("topology.new")
	tree, err := silo.NewDatacenter(silo.DatacenterConfig{
		Pods:           flowPods,
		RacksPerPod:    flowRacksPerPod,
		ServersPerRack: flowServersPerRack,
		SlotsPerServer: flowSlotsPerServer,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     5,
	})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("placement.new")
	p := &timedPlacer{admissionLog: newAdmissionLog(tree), e: e, ctl: silo.NewController(tree, silo.PlacementOptions{})}
	e.tr.end(sp)
	return &flowInst{placer: p, cfg: flowsim.Config{
		Tree:   tree,
		Placer: p,
		Mode:   flowsim.Reserved,
		AvgVMs: flowAvgVMs,
		Classes: []flowsim.ClassConfig{
			{Fraction: 0.5, Guarantee: classAGuarantee, AllToOne: true, FlowBytes: 50e6, ComputeSec: 5},
			{Fraction: 0.5, Guarantee: classBGuarantee, PermutationX: 1, FlowBytes: 10e9, ComputeSec: 5},
		},
		Occupancy:   flowOccupancy,
		DurationSec: max(e.seconds*flowSimSecPerSec, 40),
		EpochSec:    flowEpochSec,
		Seed:        e.seed,
	}}, nil
}

func (in *flowInst) run(e *env) {
	m0 := readMem()
	sp := e.tr.begin("flowsim.run")
	in.res = flowsim.Run(in.cfg)
	e.tr.end(sp)
	in.mem = memSince(m0, readMem())
}

func (in *flowInst) finish(e *env, o *outcome) {
	r, p := in.res, in.placer
	o.ops, o.attempted = int64(r.Arrived), int64(r.Arrived)
	// flowsim.Result.Rejected is never filled in, so the verdicts are
	// counted here: every arrival is one Place call, and every Place
	// call the simulator did not count as accepted was a rejection.
	accepted := 0
	for _, s := range p.samples {
		if s.accepted {
			accepted++
		}
	}
	if r.Arrived != len(p.samples) || r.Accepted != accepted {
		o.fail(o.attempted, "flowsim counted %d arrivals and %d accepted, the placer saw %d and %d", r.Arrived, r.Accepted, len(p.samples), accepted)
	}
	checkAdmissionState(o, p.tree, p.ctl)
	placementLedger(o, &p.admissionLog, in.mem)
	o.layer["flowsim.arrivals"] = float64(r.Arrived)
	o.layer["flowsim.jobs_done"] = float64(r.CompletedJobs)
	o.layer["workload.msgs_submitted"] = float64(r.Arrived)
	if e.traced() {
		hoseKernel(o.layer)
	}
}
