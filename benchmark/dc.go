package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	silo "repro"
)

// The Fig. 12-class datacenter (paper §6.2, scaled as the repository's
// own comparison experiment scales it): one pod of 10 racks × 4
// servers × 4 VM slots, 10 GbE, 312 KB ports, rack uplinks 1:5
// oversubscribed, filled to 90 % by a Table-3 tenant stream.
const (
	dcRacks          = 10
	dcServersPerRack = 4
	dcSlotsPerServer = 4
	dcOccupancy      = 0.9
	dcAvgTenantVMs   = 9
	dcClassBMsgBytes = 512 << 10
	dcDrainNs        = int64(5e9)
	dcWindowNs       = int64(1e6)
	// Simulated seconds of offered load per host second asked for; the
	// two schemes differ because TCP moves more packets per simulated
	// second than paced Silo tenants do. Measured on the 2-core
	// reference container.
	dcSiloSimSecPerSec = 0.021
	dcTCPSimSecPerSec  = 0.025
	// dcStreamSeed draws the tenant stream, the same for every --seed:
	// some twenty tenants are too few for two draws to load the fabric
	// alike, so the seed drives what the tenants send, not who they are.
	dcStreamSeed = 11
	// The transport's defaults: payload bytes per segment and the
	// Ethernet+IP+TCP overhead each segment adds on the wire.
	dcMSS         = 1460
	dcHeaderBytes = 58
)

const gbps = 1e9 / 8

type dcTenant struct {
	classA   bool
	spec     silo.TenantSpec
	servers  []int
	vmIDs    []int
	eps      []*silo.Endpoint
	msgBytes int
	boundNs  int64
	rng      *rand.Rand
}

// dcInst is one built datacenter with its generators scheduled.
type dcInst struct {
	paced   bool
	nw      *silo.Network
	tree    *silo.Datacenter
	horizon int64
	tenants []*dcTenant

	admitted, rejected int
	submitted          int64
	submittedBytes     int64
	completed          int64
	rtoMsgs            int64
	late               int64
	classA             int64
	classALatNs        []int64
}

func dcTree() (*silo.Datacenter, error) {
	return silo.NewDatacenter(silo.DatacenterConfig{
		Pods:           1,
		RacksPerPod:    dcRacks,
		ServersPerRack: dcServersPerRack,
		SlotsPerServer: dcSlotsPerServer,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     1,
	})
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// dcTenantStream draws Table-3 tenants until three times the slot
// count has been asked for, more than any scheme admits.
func dcTenantStream(rng *rand.Rand, slots int) []silo.TenantSpec {
	var out []silo.TenantSpec
	for total := 0; total < 3*slots; {
		classA := rng.Float64() < 0.5
		vms := int(rng.ExpFloat64() * dcAvgTenantVMs)
		if vms < 4 {
			vms = 4
		}
		if vms > 2*dcAvgTenantVMs {
			vms = 2 * dcAvgTenantVMs
		}
		b := clamp(rng.ExpFloat64()*2*gbps, 0.5*gbps, 3*gbps)
		g := silo.Guarantee{BandwidthBps: b, BurstBytes: 1.5e3, BurstRateBps: max(b, 2*gbps)}
		name := "B"
		if classA {
			g = silo.Guarantee{
				BandwidthBps: clamp(rng.ExpFloat64()*0.25*gbps, 0.05*gbps, 0.5*gbps),
				BurstBytes:   clamp(rng.ExpFloat64()*15e3, 3e3, 30e3),
				DelayBound:   1e-3,
				BurstRateBps: 1 * gbps,
			}
			name = "A"
		}
		out = append(out, silo.TenantSpec{
			ID: len(out) + 1, Name: fmt.Sprintf("%s%d", name, len(out)+1),
			VMs: vms, Guarantee: g, FaultDomains: 2,
		})
		total += vms
	}
	return out
}

// dcSetup builds the network, admits and deploys tenants and schedules
// their generators. paced selects Silo (admission control, paced VMs)
// against the baseline (locality placement, plain Reno).
func dcSetup(e *env, paced bool) (*dcInst, error) {
	sp := e.tr.begin("topology.new")
	tree, err := dcTree()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("netsim.build")
	nw := silo.NewNetwork(tree, silo.NetworkOptions{PropNs: 200})
	f := silo.NewFabric(nw)
	e.tr.end(sp)

	perSec := dcTCPSimSecPerSec
	if paced {
		perSec = dcSiloSimSecPerSec
	}
	in := &dcInst{paced: paced, nw: nw, tree: tree, horizon: int64(e.seconds * perSec * 1e9)}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	stream := dcTenantStream(rand.New(rand.NewSource(dcStreamSeed)), tree.Slots())
	target := int(dcOccupancy * float64(tree.Slots()))
	// 256 KB send buffers and a 200 ms minimum RTO: a stock stack on a
	// low-RTT network, as in the paper's comparison.
	topt := silo.TransportOptions{Variant: silo.TransportReno, MinRTONs: 200_000_000, MaxCwndBytes: 256 << 10}

	ctl := silo.NewController(tree, silo.PlacementOptions{})
	locality := silo.NewLocalityPlacer(tree)
	placedVMs, vmBase := 0, 1000
	for _, spec := range stream {
		if placedVMs+spec.VMs > target {
			continue
		}
		t := &dcTenant{classA: spec.Guarantee.DelayBound > 0, spec: spec, rng: rand.New(rand.NewSource(rng.Int63()))}
		var h *silo.TenantHandle
		sp = e.tr.begin("placement.admit")
		if paced {
			if h, err = ctl.Admit(spec); err == nil {
				t.servers = h.Placement.Servers
			}
		} else {
			var pl *silo.TenantPlacement
			if pl, err = locality.Place(spec); err == nil {
				t.servers = pl.Servers
			}
		}
		e.tr.end(sp)
		if err != nil {
			if !errors.Is(err, silo.ErrRejected) {
				return nil, fmt.Errorf("admit %s: %w", spec.Name, err)
			}
			in.rejected++
			continue
		}
		in.admitted++
		placedVMs += spec.VMs
		t.vmIDs = make([]int, spec.VMs)
		for i := range t.vmIDs {
			t.vmIDs[i] = vmBase + i
		}
		if paced {
			sp = e.tr.begin("core.deploy")
			t.eps = ctl.Deploy(nw, f, h, vmBase, topt)
			e.tr.end(sp)
			pat := silo.AllToAll(spec.VMs)
			if t.classA {
				pat = silo.AllToOne(spec.VMs)
			}
			sp = e.tr.begin("pacer.coordinate_hose")
			ctl.CoordinateHose(nw, h, pat)
			e.tr.end(sp)
		} else {
			sp = e.tr.begin("core.deploy")
			t.eps = make([]*silo.Endpoint, spec.VMs)
			for i, id := range t.vmIDs {
				t.eps[i] = f.AddEndpoint(id, t.servers[i], topt)
			}
			e.tr.end(sp)
		}
		vmBase += spec.VMs + 10
		in.tenants = append(in.tenants, t)
	}
	for _, t := range in.tenants {
		if t.classA {
			in.startClassA(t)
		} else {
			in.startClassB(t)
		}
	}
	return in, nil
}

// startClassA is the OLDI pattern, open loop: at exponentially spaced
// instants every VM sends one S/3-byte response to VM 0, whatever
// became of the previous round. The mean period offers a quarter of
// the aggregator's receive guarantee. Rounds keep at least one refill
// of the per-destination hose bucket apart, so the tenant stays inside
// its guarantee and M/Bmax + d binds every message: under Silo a late
// message is a failure, not bad luck in the arrival process.
func (in *dcInst) startClassA(t *dcTenant) {
	g := t.spec.Guarantee
	t.msgBytes = int(g.BurstBytes / 3)
	if t.msgBytes < 1500 {
		t.msgBytes = 1500
	}
	t.boundNs = int64(g.MessageLatencyBound(float64(t.msgBytes)) * 1e9)
	meanPeriod := 4 * float64(t.spec.VMs-1) * float64(t.msgBytes) / g.BandwidthBps * 1e9
	segs := (t.msgBytes + dcMSS - 1) / dcMSS
	wire := float64(t.msgBytes + segs*dcHeaderBytes)
	minGap := float64(t.spec.VMs-1) * wire / g.BandwidthBps * 1e9
	gap := func() int64 { return int64(max(t.rng.ExpFloat64()*meanPeriod, minGap)) }
	done := func(m *silo.Message) {
		in.completed++
		if m.RTOs > 0 {
			in.rtoMsgs++
		}
		in.classALatNs = append(in.classALatNs, m.Latency())
		if m.Latency() > t.boundNs {
			in.late++
		}
	}
	next := gap()
	var round func()
	round = func() {
		for i := 1; i < t.spec.VMs; i++ {
			in.submitted++
			in.classA++
			in.submittedBytes += int64(t.msgBytes)
			t.eps[i].SendMessage(t.vmIDs[0], t.msgBytes, done)
		}
		next += gap()
		if next < in.horizon {
			in.nw.Sim.At(next, round)
		}
	}
	if next < in.horizon {
		in.nw.Sim.At(next, round)
	}
}

// startClassB is the shuffle, closed loop: each ordered pair of VMs on
// different servers keeps exactly one 512 KB message in flight until the
// load horizon.
func (in *dcInst) startClassB(t *dcTenant) {
	for i := range t.vmIDs {
		for j := range t.vmIDs {
			if i == j || t.servers[i] == t.servers[j] {
				continue
			}
			ep, dst := t.eps[i], t.vmIDs[j]
			var pump func(*silo.Message)
			pump = func(prev *silo.Message) {
				if prev != nil {
					in.completed++
					if prev.RTOs > 0 {
						in.rtoMsgs++
					}
				}
				if in.nw.Sim.Now() < in.horizon {
					in.submitted++
					in.submittedBytes += dcClassBMsgBytes
					ep.SendMessage(dst, dcClassBMsgBytes, pump)
				}
			}
			pump(nil)
		}
	}
}

// run is the measured region: the load, then the drain, in windows of
// one simulated millisecond.
func (in *dcInst) run(e *env) {
	for t := dcWindowNs; t <= in.horizon+dcDrainNs; t += dcWindowNs {
		sp := e.tr.begin("netsim.run")
		in.nw.Sim.Run(t)
		e.tr.end(sp)
	}
}

// netCounters reads the fabric at a span boundary.
type netCounters struct {
	hops, drops, voids, nicFrames, hwmBytes int64
}

func readNet(nw *silo.Network) netCounters {
	var c netCounters
	for _, q := range nw.Queues {
		if q == nil {
			continue
		}
		c.hops += q.Stats.SentPkts
		if q.Stats.HighWaterBytes > c.hwmBytes {
			c.hwmBytes = q.Stats.HighWaterBytes
		}
	}
	for _, h := range nw.Hosts {
		if h.Paced() {
			c.nicFrames += h.NIC.Stats.SentPkts
		}
	}
	c.drops = nw.TotalDrops()
	c.voids = nw.TotalVoidsDropped()
	return c
}

// netLedger fills the netsim.* layer metrics from the fabric counters
// and the engine's own.
func netLedger(o *outcome, nw *silo.Network, c netCounters) {
	rc := nw.Sim.RuntimeCounters()
	l := o.layer
	l["netsim.pkt_hops"] = float64(c.hops)
	l["netsim.events"] = float64(rc.Events)
	l["netsim.events_per_hop"] = ratio(float64(rc.Events), float64(c.hops))
	l["netsim.drops"] = float64(c.drops)
	l["netsim.queue_hwm_bytes"] = float64(c.hwmBytes)
	l["netsim.wheel_hwm"] = float64(rc.WheelHWM)
	l["netsim.far_hwm"] = float64(rc.FarHWM)
	l["netsim.ev_freelist_hit_frac"] = ratio(float64(rc.EvHits), float64(rc.EvHits+rc.EvMisses))
	l["netsim.pkt_arena_hit_frac"] = ratio(float64(rc.PktHits), float64(rc.PktHits+rc.PktMisses))
}

// simDigest hashes what the simulation did: every port's counters,
// drops, voids, goodput and the sorted latencies. Two builds that
// simulate the same behaviour print the same digest.
func simDigest(nw *silo.Network, latNs []int64) string {
	h := sha256.New()
	for _, q := range nw.Queues {
		if q == nil {
			continue
		}
		s := q.Stats
		hashInts(h, s.EnqueuedPkts, s.SentPkts, s.SentBytes, s.DroppedPkts, s.DroppedBytes,
			s.FaultDroppedPkts, s.ECNMarked, s.VoidDropped, s.HighWaterBytes)
	}
	hashInts(h, nw.TotalDrops(), nw.TotalVoidsDropped(), nw.SentDataBytes())
	sorted := append([]int64(nil), latNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	hashInts(h, sorted...)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (in *dcInst) finish(e *env, o *outcome) {
	c := readNet(in.nw)
	o.ops = c.hops
	o.attempted = in.submitted
	if in.completed != in.submitted {
		o.fail(in.submitted-in.completed, "%d of %d messages incomplete after drain", in.submitted-in.completed, in.submitted)
	}
	if in.paced {
		if in.late > 0 {
			o.fail(in.late, "%d class-A messages later than M/Bmax+d", in.late)
		}
		if c.drops > 0 {
			o.fail(c.drops, "%d packets dropped under Silo", c.drops)
		}
	}
	latUs := make([]float64, len(in.classALatNs))
	for i, ns := range in.classALatNs {
		latUs[i] = float64(ns) / 1e3
	}
	sort.Float64s(latUs)
	o.latN = len(latUs)
	o.digest = simDigest(in.nw, in.classALatNs)

	netLedger(o, in.nw, c)
	l := o.layer
	l["pacer.data_frames"] = float64(c.nicFrames - c.voids)
	l["pacer.void_frames"] = float64(c.voids)
	l["pacer.void_frac"] = ratio(float64(c.voids), float64(c.nicFrames))
	l["transport.msgs"] = float64(in.completed)
	l["transport.rto_msg_frac"] = ratio(float64(in.rtoMsgs), float64(in.completed))
	l["transport.msg_p50_us"] = percentile(latUs, 50)
	l["transport.msg_p99_us"] = percentile(latUs, 99)
	l["placement.accepts"] = float64(in.admitted)
	l["placement.rejects"] = float64(in.rejected)
	l["placement.accepted_frac"] = ratio(float64(in.admitted), float64(in.admitted+in.rejected))
	l["check.late_frac"] = ratio(float64(in.late), float64(in.classA))
	l["workload.msgs_submitted"] = float64(in.submitted)
	l["workload.bytes_submitted"] = float64(in.submittedBytes)
	if e.traced() && in.paced {
		batchKernel(l)
	}
}
