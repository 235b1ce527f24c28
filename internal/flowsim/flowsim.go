// Package flowsim is the flow-level datacenter simulator behind the
// paper's §6.3 evaluation (Figures 15 and 16): tenants arrive in a
// Poisson process, their VMs are placed by a pluggable placement
// algorithm, each tenant runs a job that moves a fixed volume of data
// over its communication pattern (all-to-one for class A,
// Permutation-x for class B) plus a minimum compute time, and departs
// when done.
//
// Bandwidth is allocated per epoch either by reservation (Silo,
// Oktopus: each tenant's flows get its hose-model guarantee,
// coordinated within the tenant, with no cross-tenant sharing) or by
// ideal-TCP max-min fair sharing over the physical topology (the
// Locality baseline).
package flowsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Mode selects the bandwidth allocation model.
type Mode int

// Allocation modes.
const (
	// Reserved gives each tenant exactly its guarantee (Silo,
	// Oktopus).
	Reserved Mode = iota
	// FairShare emulates ideal TCP: global max-min fairness across
	// all flows on the physical links.
	FairShare
)

// ClassConfig describes one tenant class (paper Table 3).
type ClassConfig struct {
	// Fraction of arrivals in this class.
	Fraction float64
	// Guarantee is the per-VM triple (+Bmax).
	Guarantee tenant.Guarantee
	// AllToOne marks class-A's partition/aggregate pattern; otherwise
	// Permutation-X is used.
	AllToOne bool
	// PermutationX sets x for class-B patterns.
	PermutationX float64
	// FlowBytes is the data each flow carries.
	FlowBytes float64
	// ComputeSec is the job's minimum duration.
	ComputeSec float64
}

// Config parameterizes a run.
type Config struct {
	Tree *topology.Tree
	// Placer performs admission and placement.
	Placer placement.Algorithm
	// Mode is the bandwidth model.
	Mode Mode
	// AvgVMs is the mean tenant size (exponential, min 2; paper uses
	// 49 after Oktopus).
	AvgVMs int
	// Classes describes the tenant mix.
	Classes []ClassConfig
	// Occupancy is the target mean fraction of occupied VM slots;
	// it sets the Poisson arrival rate via Little's law.
	Occupancy float64
	// ArrivalRate overrides the Little's-law rate when > 0
	// (tenants/sec). Callers use it to calibrate achieved occupancy.
	ArrivalRate float64
	// DurationSec is simulated time; EpochSec the allocation step.
	DurationSec, EpochSec float64
	Seed                  uint64
}

// Result aggregates a run's metrics.
type Result struct {
	Arrived, Accepted, Rejected int
	// Per class-index counts.
	ArrivedByClass, AcceptedByClass []int
	// AvgUtilization is the mean network utilization: carried load
	// over capacity across switch ports, averaged over epochs.
	AvgUtilization float64
	// AvgOccupancy is the mean fraction of occupied VM slots.
	AvgOccupancy float64
	// CompletedJobs and their mean duration.
	CompletedJobs  int
	MeanJobSeconds float64
	// ArrivalRateUsed is the tenants/sec actually driven (for
	// occupancy calibration).
	ArrivalRateUsed float64
	// Err is the first placement failure that is not a rejection — a
	// Place error other than placement.ErrRejected, or any Remove
	// error — wrapped with the tenant's id. The run stops there; the
	// other fields describe it up to that point.
	Err error
}

// AdmittedFrac returns the fraction of arrivals accepted.
func (r Result) AdmittedFrac() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Arrived)
}

// AdmittedFracClass returns the per-class admitted fraction.
func (r Result) AdmittedFracClass(c int) float64 {
	if r.ArrivedByClass[c] == 0 {
		return 0
	}
	return float64(r.AcceptedByClass[c]) / float64(r.ArrivedByClass[c])
}

type flow struct {
	// pair holds the tenant-local VM indices, the hose kernel's terms.
	pair      pacer.Flow
	local     bool    // both VMs on one server: not network limited
	frozen    bool    // allocateFairShare: a link of path is saturated
	remaining float64 // bytes
	rate      float64 // bytes/sec; unused for a local flow
	path      []int   // directed port IDs, source NIC first
}

type job struct {
	spec     tenant.Spec
	flows    []flow
	liveFlow int
	// solvedLive is liveFlow when the reserved rates were last solved.
	// A flow set only shrinks, so an equal count is an equal set, and the
	// rates are a function of the set alone.
	solvedLive int
	started    float64
	minEnd     float64 // started + compute time
}

// sim is one Run's state: the live jobs, the scratch each arrival's
// job is built in, and the per-port and per-tenant scratch both
// allocation modes reuse every epoch.
type sim struct {
	live []*job

	// buildJob: an arriving tenant's (src, dst) pairs and the
	// permutation scratch their draws use.
	edges []workload.Edge
	perm  []int

	// Per directed port, indexed by port ID: line rate, whether it is a
	// switch port (utilization leaves NICs out), and the epoch's carried
	// load. switchCap is the summed rate of the switch ports.
	portRate  []float64
	isSwitch  []bool
	load      []float64
	switchCap float64

	// allocateReserved: the solver, the tenant's guarantee once per VM,
	// and the live flows' pairs and rates gathered for one solve.
	kernel pacer.HoseKernel
	caps   []float64
	pairs  []pacer.Flow
	rates  []float64

	// allocateFairShare: per-port use and unfrozen-flow count, the ports
	// with any flow on them, and the flows that cross the network.
	used    []float64
	count   []int
	touched []int
	active  []*flow
}

// Run executes the simulation.
func Run(cfg Config) Result {
	rng := stats.NewRand(cfg.Seed)
	tree := cfg.Tree
	res := Result{
		ArrivedByClass:  make([]int, len(cfg.Classes)),
		AcceptedByClass: make([]int, len(cfg.Classes)),
	}
	s := newSim(cfg)

	totalSlots := tree.Slots()
	// Estimate mean job duration per class to set the arrival rate
	// (Little's law): occupancy·slots = rate·meanVMs·meanDuration.
	// The network phase is pattern-aware: all-to-one drains (N−1)
	// flows through one receiver hose; Permutation-x splits each
	// sender hose x ways.
	meanDur := 0.0
	for _, c := range cfg.Classes {
		nominal := c.ComputeSec
		if c.Guarantee.BandwidthBps > 0 && c.FlowBytes > 0 {
			if c.AllToOne {
				nominal += float64(cfg.AvgVMs-1) * c.FlowBytes / c.Guarantee.BandwidthBps
			} else {
				x := c.PermutationX
				if x < 1 {
					x = 1
				}
				nominal += x * c.FlowBytes / c.Guarantee.BandwidthBps
			}
		}
		meanDur += c.Fraction * nominal
	}
	if meanDur <= 0 {
		meanDur = 1
	}
	arrivalRate := cfg.Occupancy * float64(totalSlots) / (float64(cfg.AvgVMs) * meanDur)
	if cfg.ArrivalRate > 0 {
		arrivalRate = cfg.ArrivalRate
	}
	res.ArrivalRateUsed = arrivalRate

	nextID := 1
	nextArrival := rng.Exp(1 / arrivalRate)
	now := 0.0
	var utilSum, occSum float64
	epochs := 0
	var jobSecSum float64

run:
	for now < cfg.DurationSec {
		// Admit arrivals due this epoch.
		for nextArrival <= now {
			cIdx := pickClass(cfg.Classes, rng)
			cls := cfg.Classes[cIdx]
			n := int(rng.Exp(float64(cfg.AvgVMs)))
			if n < 2 {
				n = 2
			}
			if n > totalSlots/4 {
				n = totalSlots / 4
			}
			spec := tenant.Spec{
				ID:        nextID,
				Name:      "job",
				VMs:       n,
				Guarantee: cls.Guarantee,
			}
			nextID++
			pl, err := cfg.Placer.Place(spec)
			switch {
			case err == nil:
				res.Accepted++
				res.AcceptedByClass[cIdx]++
				s.live = append(s.live, s.buildJob(spec, pl, cls, tree, rng, now))
			case errors.Is(err, placement.ErrRejected):
				res.Rejected++
			default:
				res.Err = fmt.Errorf("flowsim: place tenant %d: %w", spec.ID, err)
				break run
			}
			res.Arrived++
			res.ArrivedByClass[cIdx]++
			nextArrival += rng.Exp(1 / arrivalRate)
		}

		// Allocate bandwidth.
		if cfg.Mode == Reserved {
			s.allocateReserved()
		} else {
			s.allocateFairShare()
		}

		// Measure utilization across switch ports and advance, one pass
		// over the flows still moving data.
		dt := cfg.EpochSec
		occ := 0
		for _, j := range s.live {
			occ += j.spec.VMs
			if j.liveFlow <= 0 {
				continue
			}
			for i := range j.flows {
				f := &j.flows[i]
				if f.remaining <= 0 {
					continue
				}
				rate := f.rate
				if f.local {
					rate = f.remaining // drains within one epoch of a second or more
				}
				for _, pid := range f.path {
					s.load[pid] += rate
				}
				f.remaining -= rate * dt
				if f.remaining <= 0 {
					f.remaining = 0
					j.liveFlow--
				}
			}
		}
		utilSum += s.utilization()
		occSum += float64(occ) / float64(totalSlots)
		epochs++
		now += dt

		// Complete jobs.
		survivors := s.live[:0]
		for _, j := range s.live {
			if j.liveFlow <= 0 && now >= j.minEnd {
				if err := cfg.Placer.Remove(j.spec.ID); err != nil {
					res.Err = fmt.Errorf("flowsim: remove tenant %d: %w", j.spec.ID, err)
					break run
				}
				jobSecSum += now - j.started
				res.CompletedJobs++
				continue
			}
			survivors = append(survivors, j)
		}
		s.live = survivors
	}

	if epochs > 0 {
		res.AvgUtilization = utilSum / float64(epochs)
		res.AvgOccupancy = occSum / float64(epochs)
	}
	if res.CompletedJobs > 0 {
		res.MeanJobSeconds = jobSecSum / float64(res.CompletedJobs)
	}
	return res
}

func newSim(cfg Config) *sim {
	n := cfg.Tree.NumPorts()
	s := &sim{
		portRate: make([]float64, n),
		isSwitch: make([]bool, n),
		load:     make([]float64, n),
	}
	if cfg.Mode != Reserved {
		s.used, s.count = make([]float64, n), make([]int, n)
	}
	// Capacity: all switch ports (used or not) — utilization of the
	// whole fabric.
	for pid := 0; pid < n; pid++ {
		p := cfg.Tree.Port(pid)
		s.portRate[pid] = p.RateBps
		if p.Level != topology.LevelServer {
			s.isSwitch[pid] = true
			s.switchCap += p.RateBps
		}
	}
	return s
}

func pickClass(classes []ClassConfig, rng *stats.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, c := range classes {
		acc += c.Fraction
		if u < acc {
			return i
		}
	}
	return len(classes) - 1
}

// buildJob lays out an admitted tenant's flows. Its (src, dst) pairs go
// through the sim's scratch, so the job, its flows and their ports are
// the only allocations.
func (s *sim) buildJob(spec tenant.Spec, pl *tenant.Placement, cls ClassConfig, tree *topology.Tree, rng *stats.Rand, now float64) *job {
	s.edges, s.perm = workload.AppendEdges(s.edges[:0], s.perm, spec.VMs, cls.AllToOne, cls.PermutationX, rng)
	edges := len(s.edges)
	j := &job{
		spec:       spec,
		flows:      make([]flow, edges),
		liveFlow:   edges,
		solvedLive: -1,
		started:    now,
		minEnd:     now + cls.ComputeSec,
	}
	// One array holds every flow's path: at most six ports each.
	ports := make([]int, 0, 6*edges)
	for i, e := range s.edges {
		ss, ds := pl.Servers[e.Src], pl.Servers[e.Dst]
		lo := len(ports)
		ports = tree.AppendPathIDs(ports, ss, ds)
		j.flows[i] = flow{
			pair:      pacer.Flow(e),
			local:     ss == ds,
			remaining: math.Max(cls.FlowBytes, 1),
			path:      ports[lo:len(ports):len(ports)],
		}
	}
	return j
}

// allocateReserved gives each tenant's flows its hose guarantee,
// coordinated within the tenant (no sharing across tenants) via the
// pacer's solver. Intra-server flows take part like any other (the
// hose is per VM, not per NIC) although they drain at once. A tenant is
// solved again only when one of its flows has finished since.
func (s *sim) allocateReserved() {
	for _, j := range s.live {
		if j.liveFlow == j.solvedLive {
			continue
		}
		j.solvedLive = j.liveFlow
		s.caps = slices.Grow(s.caps[:0], j.spec.VMs)[:j.spec.VMs]
		for i := range s.caps {
			s.caps[i] = j.spec.Guarantee.BandwidthBps
		}
		pairs := s.pairs[:0]
		for i := range j.flows {
			if j.flows[i].remaining > 0 {
				pairs = append(pairs, j.flows[i].pair)
			}
		}
		s.pairs, s.rates = pairs, slices.Grow(s.rates[:0], len(pairs))[:len(pairs)]
		s.kernel.Solve(s.caps, s.caps, pairs, s.rates)
		n := 0
		for i := range j.flows {
			if f := &j.flows[i]; f.remaining > 0 {
				f.rate = s.rates[n]
				n++
			}
		}
	}
}

// allocateFairShare computes global max-min fair rates over the
// physical ports (ideal TCP).
func (s *sim) allocateFairShare() {
	for _, pid := range s.touched {
		s.used[pid], s.count[pid] = 0, 0
	}
	touched, active := s.touched[:0], s.active[:0]
	for _, j := range s.live {
		for i := range j.flows {
			f := &j.flows[i]
			if f.remaining <= 0 || f.local {
				continue // local flows are unconstrained
			}
			f.rate, f.frozen = 0, false
			active = append(active, f)
			for _, pid := range f.path {
				if s.count[pid] == 0 {
					touched = append(touched, pid)
				}
				s.count[pid]++
			}
		}
	}
	s.touched, s.active = touched, active
	remaining := len(active)
	for remaining > 0 {
		// Tightest link bottleneck share.
		share := math.Inf(1)
		for _, pid := range touched {
			if s.count[pid] == 0 {
				continue
			}
			if sh := (s.portRate[pid] - s.used[pid]) / float64(s.count[pid]); sh < share {
				share = sh
			}
		}
		if math.IsInf(share, 1) || share < 0 {
			break
		}
		// Raise all unfrozen flows by share; freeze those on saturated
		// links.
		for _, f := range active {
			if f.frozen {
				continue
			}
			f.rate += share
			for _, pid := range f.path {
				s.used[pid] += share
			}
		}
		progressed := false
		for _, f := range active {
			if f.frozen {
				continue
			}
			for _, pid := range f.path {
				if c := s.portRate[pid]; c-s.used[pid] <= 1e-6*c {
					f.frozen = true
					break
				}
			}
			if f.frozen {
				remaining--
				progressed = true
				for _, pid := range f.path {
					s.count[pid]--
				}
			}
		}
		if !progressed {
			break
		}
	}
}

// utilization returns the epoch's carried load over capacity across
// switch ports (NIC ports excluded, matching the paper's focus on
// network links) and clears the load for the next epoch. Ports are
// summed in ID order, so the same run gives the same bits.
func (s *sim) utilization() float64 {
	var load float64
	for pid, l := range s.load {
		if s.isSwitch[pid] {
			load += math.Min(l, s.portRate[pid])
		}
	}
	clear(s.load)
	if s.switchCap == 0 {
		return 0
	}
	return load / s.switchCap
}
