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
	"math"

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
	job       *job
	srcServer int
	dstServer int
	srcVM     int // tenant-local VM index
	dstVM     int
	remaining float64 // bytes
	rate      float64 // bytes/sec, set per epoch
	path      []*topology.Port
}

type job struct {
	id       int
	class    int
	spec     tenant.Spec
	pl       *tenant.Placement
	flows    []*flow
	liveFlow int
	started  float64
	minEnd   float64 // started + compute time
	deadAt   float64 // completion, for stats
}

// Run executes the simulation.
func Run(cfg Config) Result {
	rng := stats.NewRand(cfg.Seed)
	tree := cfg.Tree
	res := Result{
		ArrivedByClass:  make([]int, len(cfg.Classes)),
		AcceptedByClass: make([]int, len(cfg.Classes)),
	}

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

	var live []*job
	nextID := 1
	nextArrival := rng.Exp(1 / arrivalRate)
	now := 0.0
	var utilSum, occSum float64
	epochs := 0
	var jobSecSum float64

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
			res.Arrived++
			res.ArrivedByClass[cIdx]++
			pl, err := cfg.Placer.Place(spec)
			if err == nil {
				res.Accepted++
				res.AcceptedByClass[cIdx]++
				j := buildJob(spec, pl, cIdx, cls, tree, rng, now)
				live = append(live, j)
			} else if errors.Is(err, placement.ErrRejected) {
				res.Rejected++
			}
			nextArrival += rng.Exp(1 / arrivalRate)
		}

		// Allocate bandwidth.
		var flows []*flow
		for _, j := range live {
			for _, f := range j.flows {
				if f.remaining > 0 {
					flows = append(flows, f)
				}
			}
		}
		switch cfg.Mode {
		case Reserved:
			allocateReserved(live)
		default:
			allocateFairShare(tree, flows)
		}

		// Measure utilization across switch ports.
		utilSum += utilization(tree, flows)
		occ := 0
		for _, j := range live {
			occ += j.spec.VMs
		}
		occSum += float64(occ) / float64(totalSlots)
		epochs++

		// Advance.
		dt := cfg.EpochSec
		for _, f := range flows {
			f.remaining -= f.rate * dt
			if f.remaining <= 0 {
				f.remaining = 0
				f.job.liveFlow--
			}
		}
		now += dt

		// Complete jobs.
		survivors := live[:0]
		for _, j := range live {
			if j.liveFlow <= 0 && now >= j.minEnd {
				j.deadAt = now
				jobSecSum += now - j.started
				res.CompletedJobs++
				_ = cfg.Placer.Remove(j.spec.ID)
				continue
			}
			survivors = append(survivors, j)
		}
		live = survivors
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

func buildJob(spec tenant.Spec, pl *tenant.Placement, cIdx int, cls ClassConfig, tree *topology.Tree, rng *stats.Rand, now float64) *job {
	j := &job{
		id:      spec.ID,
		class:   cIdx,
		spec:    spec,
		pl:      pl,
		started: now,
		minEnd:  now + cls.ComputeSec,
	}
	var pat workload.Pattern
	if cls.AllToOne {
		pat = workload.AllToOne(spec.VMs)
	} else {
		pat = workload.Permutation(spec.VMs, cls.PermutationX, rng)
	}
	for src, dsts := range pat {
		for _, dst := range dsts {
			ss, ds := pl.Servers[src], pl.Servers[dst]
			f := &flow{
				job:       j,
				srcServer: ss,
				dstServer: ds,
				srcVM:     src,
				dstVM:     dst,
				remaining: cls.FlowBytes,
				path:      tree.Path(ss, ds),
			}
			if f.remaining < 1 {
				f.remaining = 1
			}
			j.flows = append(j.flows, f)
			j.liveFlow++
		}
	}
	return j
}

// allocateReserved gives each tenant's flows its hose guarantee,
// coordinated within the tenant (no sharing across tenants) via the
// pacer's allocator.
func allocateReserved(live []*job) {
	for _, j := range live {
		b := j.spec.Guarantee.BandwidthBps
		send := map[int]float64{}
		recv := map[int]float64{}
		var flows []pacer.Flow
		byPair := map[pacer.Flow][]*flow{}
		for _, f := range j.flows {
			if f.remaining <= 0 {
				f.rate = 0
				continue
			}
			send[f.srcVM] = b
			recv[f.dstVM] = b
			key := pacer.Flow{Src: f.srcVM, Dst: f.dstVM}
			flows = append(flows, key)
			byPair[key] = append(byPair[key], f)
		}
		rates := pacer.HoseAllocate(send, recv, flows)
		for key, fs := range byPair {
			per := rates[key] / float64(len(fs))
			for _, f := range fs {
				// Intra-server flows are not network limited.
				if f.srcServer == f.dstServer {
					f.rate = math.Inf(1)
					if f.remaining > 0 {
						f.rate = f.remaining // drain within one epoch
					}
					continue
				}
				f.rate = per
			}
		}
	}
}

// allocateFairShare computes global max-min fair rates over the
// physical ports (ideal TCP).
func allocateFairShare(tree *topology.Tree, flows []*flow) {
	type linkState struct {
		cap   float64
		used  float64
		count int
	}
	links := map[int]*linkState{}
	var active []*flow
	for _, f := range flows {
		if f.srcServer == f.dstServer {
			f.rate = f.remaining // local, unconstrained
			continue
		}
		f.rate = 0
		active = append(active, f)
		for _, p := range f.path {
			if links[p.ID] == nil {
				links[p.ID] = &linkState{cap: p.RateBps}
			}
			links[p.ID].count++
		}
	}
	frozen := make(map[*flow]bool, len(active))
	remaining := len(active)
	for remaining > 0 {
		// Tightest link bottleneck share.
		share := math.Inf(1)
		for _, ls := range links {
			if ls.count == 0 {
				continue
			}
			if s := (ls.cap - ls.used) / float64(ls.count); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) || share < 0 {
			break
		}
		// Raise all unfrozen flows by share; freeze those on saturated
		// links.
		for _, f := range active {
			if frozen[f] {
				continue
			}
			f.rate += share
			for _, p := range f.path {
				links[p.ID].used += share
			}
		}
		progressed := false
		for _, f := range active {
			if frozen[f] {
				continue
			}
			sat := false
			for _, p := range f.path {
				ls := links[p.ID]
				if ls.cap-ls.used <= 1e-6*ls.cap {
					sat = true
					break
				}
			}
			if sat {
				frozen[f] = true
				remaining--
				progressed = true
				for _, p := range f.path {
					links[p.ID].count--
				}
			}
		}
		if !progressed {
			break
		}
	}
}

// utilization returns carried load over capacity across switch ports
// (NIC ports excluded, matching the paper's focus on network links).
func utilization(tree *topology.Tree, flows []*flow) float64 {
	var load, capSum float64
	seen := map[int]float64{}
	for _, f := range flows {
		if f.srcServer == f.dstServer || math.IsInf(f.rate, 1) {
			continue
		}
		for _, p := range f.path {
			if p.Level == topology.LevelServer {
				continue
			}
			seen[p.ID] += f.rate
		}
	}
	for pid, l := range seen {
		c := tree.Port(pid).RateBps
		if l > c {
			l = c
		}
		load += l
		_ = pid
	}
	// Capacity: all switch ports (used or not) — utilization of the
	// whole fabric.
	for pid := 0; pid < tree.NumPorts(); pid++ {
		p := tree.Port(pid)
		if p.Level == topology.LevelServer {
			continue
		}
		capSum += p.RateBps
	}
	if capSum == 0 {
		return 0
	}
	return load / capSum
}
