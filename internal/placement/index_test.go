package placement

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// denseSlots is the slot index as it was kept before its per-server
// counts went lazy and its scopes got touched bits: every server's free
// slots written at build, fed the same mutations in the same order (the
// commit hook's).
type denseSlots struct {
	tree                  *topology.Tree
	freeSlots             []int
	freeByRack, freeByPod []int
	totalFree             int
	disabled              []bool
	hidden                []int
	servers               map[int][]int // admitted tenant → its servers
	log                   []Mutation
}

func newDenseSlots(m *Manager) *denseSlots {
	t := m.tree
	cfg := t.Config()
	d := &denseSlots{
		tree:       t,
		freeSlots:  make([]int, t.Servers()),
		freeByRack: make([]int, t.Racks()),
		freeByPod:  make([]int, t.Pods()),
		totalFree:  t.Slots(),
		disabled:   make([]bool, t.Servers()),
		hidden:     make([]int, t.Servers()),
		servers:    make(map[int][]int),
	}
	for s := range d.freeSlots {
		d.freeSlots[s] = cfg.SlotsPerServer
	}
	for r := range d.freeByRack {
		d.freeByRack[r] = cfg.SlotsPerServer * cfg.ServersPerRack
	}
	for p := range d.freeByPod {
		d.freeByPod[p] = cfg.SlotsPerServer * cfg.ServersPerRack * cfg.RacksPerPod
	}
	m.SetCommitHook(func(mut *Mutation) error {
		d.log = append(d.log, *mut)
		return nil
	})
	return d
}

func (d *denseSlots) add(s, n int) {
	d.freeSlots[s] += n
	d.freeByRack[d.tree.RackOfServer(s)] += n
	d.freeByPod[d.tree.PodOfServer(s)] += n
	d.totalFree += n
}

// catchUp applies the mutations logged since the last call.
func (d *denseSlots) catchUp() {
	for _, mut := range d.log {
		switch mut.Op {
		case MutPlace:
			d.servers[mut.Spec.ID] = mut.Servers
			for _, s := range mut.Servers {
				d.add(s, -1)
			}
		case MutRemove:
			for _, s := range d.servers[mut.TenantID] {
				if d.disabled[s] {
					d.hidden[s]++
				} else {
					d.add(s, 1)
				}
			}
			delete(d.servers, mut.TenantID)
		case MutFail:
			for _, s := range mut.Servers {
				if s >= 0 && s < d.tree.Servers() && !d.disabled[s] {
					d.disabled[s], d.hidden[s] = true, d.freeSlots[s]
					d.add(s, -d.freeSlots[s])
				}
			}
		case MutRestore:
			for _, s := range mut.Servers {
				if s >= 0 && s < d.tree.Servers() && d.disabled[s] {
					d.disabled[s] = false
					d.add(s, d.hidden[s])
					d.hidden[s] = 0
				}
			}
		}
	}
	d.log = d.log[:0]
}

// scanHeadroom is the headroom index's refresh as it was with every rack
// dirty: every server's two ports read, every rack and pod summarized.
func scanHeadroom(m *Manager) (rackMax, podMax []float64, dcMax float64) {
	t := m.tree
	upRate, _ := t.Line(m.upLo)
	downRate, _ := t.Line(m.downLo)
	rackMax, podMax = make([]float64, t.Racks()), make([]float64, t.Pods())
	for r := range rackMax {
		lo, hi := t.ServersOfRack(r)
		for s := lo; s < hi; s++ {
			f := upRate - m.ports.state(t.ServerUpPortID(s)).Rate
			if d := downRate - m.ports.state(t.RackDownPortID(s)).Rate; d < f {
				f = d
			}
			if f > rackMax[r] {
				rackMax[r] = f
			}
		}
		if f := rackMax[r]; f > podMax[t.PodOfRack(r)] {
			podMax[t.PodOfRack(r)] = f
		}
	}
	for _, f := range podMax {
		if f > dcMax {
			dcMax = f
		}
	}
	return rackMax, podMax, dcMax
}

// scanOracle is the scope search's filter as it was: every rack, then
// every pod, tested for free slots and headroom, the untouched ones
// beyond the first collapsed.
type scanOracle struct {
	dense          *denseSlots
	rackMax        []float64
	podMax         []float64
	dcMax          float64
	headroomFilter int // candidates the headroom test alone dropped
}

func (o *scanOracle) candidates(m *Manager, spec *tenant.Spec, span scopeHeight, useHeadroom bool) (cands []int, collapsed int) {
	cfg := m.tree.Config()
	free, full, headMax := o.dense.freeByRack, cfg.SlotsPerServer*cfg.ServersPerRack, o.rackMax
	if span == scopePod {
		free, full, headMax = o.dense.freeByPod, full*cfg.RacksPerPod, o.podMax
	}
	untouchedSeen := false
	for i, free := range free {
		if free < spec.VMs {
			continue
		}
		if useHeadroom && spec.Guarantee.BandwidthBps > headMax[i]+headroomSlack {
			o.headroomFilter++
			continue
		}
		if free == full {
			if untouchedSeen {
				collapsed++
				continue
			}
			untouchedSeen = true
		}
		cands = append(cands, i)
	}
	return cands, collapsed
}

// findPlacement is the Manager's search over the scanned filter: the
// servers it chooses and what it counts.
func (o *scanOracle) findPlacement(m *Manager, spec *tenant.Spec) ([]int, searchStats) {
	var st searchStats
	budget := spec.Guarantee.DelayBound
	if budget <= 0 {
		budget = math.Inf(1)
	}
	if spec.FaultDomains <= 1 && spec.VMs <= m.tree.Config().SlotsPerServer {
		for s, free := range o.dense.freeSlots {
			if free >= spec.VMs {
				return repeatServer(s, spec.VMs), st
			}
		}
	}
	m.fillReqMemo(spec)
	useHeadroom := spec.VMs >= 2
	for span, racksPer := range [...]int{1, m.tree.Config().RacksPerPod} {
		span := scopeHeight(span)
		if !m.scopeDelayOK(budget, span) {
			continue
		}
		cands, collapsed := o.candidates(m, spec, span, useHeadroom)
		st.evaluated[span], st.collapsed[span] = len(cands), collapsed
		for j, i := range cands {
			if servers := m.tryScope(spec, &m.scratch, i*racksPer, (i+1)*racksPer, span); servers != nil {
				st.evaluated[span] = j + 1
				return servers, st
			}
		}
	}
	if m.scopeDelayOK(budget, scopeDC) && o.dense.totalFree >= spec.VMs &&
		!(useHeadroom && spec.Guarantee.BandwidthBps > o.dcMax+headroomSlack) {
		st.evaluated[scopeDC] = 1
		return m.tryScope(spec, &m.scratch, 0, m.tree.Racks(), scopeDC), st
	}
	return nil, st
}

// Property: under seeded place / remove / fail / recover churn on a tree
// of 132 racks in 66 pods, the touched-scope walk, the dirty-rack
// refresh and the lazily counted slot index answer as the full scans
// did. Before every guaranteed request the headroom summaries equal the
// scan's, bit for bit, and each height's candidates and collapsed count
// equal the scanned filter's; the request lands where the scanned search
// puts it, with the same per-height counts in the journal. After every
// step every server's free slots, the rack, pod and datacenter sums and
// the touched bits equal the dense copy's.
func TestTouchedScopeIndexEquivalenceProperty(t *testing.T) {
	tree, err := topology.New(topology.Config{
		Pods: 66, RacksPerPod: 2, ServersPerRack: 2, SlotsPerServer: 3,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 2, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var requests, headroomDrops, collapses, highWords int
	f := func(seed uint64, opsRaw uint8) bool {
		m := NewManager(tree, Options{})
		m.EnableJournal()
		dense := newDenseSlots(m)
		rng := stats.NewRand(seed)
		fail := func(step, format string, args ...any) bool {
			t.Logf("seed %#x ops %#x, %s: %s", seed, opsRaw, step, fmt.Sprintf(format, args...))
			return false
		}
		checkSlots := func(step string) bool {
			dense.catchUp()
			for s := 0; s < tree.Servers(); s++ {
				if got, want := m.ix.slots(s), dense.freeSlots[s]; got != want {
					return fail(step, "server %d has %d free slots, dense %d", s, got, want)
				}
			}
			if !slices.Equal(m.ix.freeByRack, dense.freeByRack) || !slices.Equal(m.ix.freeByPod, dense.freeByPod) ||
				m.ix.totalFree != dense.totalFree {
				return fail(step, "free sums %v %v %d, dense %v %v %d",
					m.ix.freeByRack, m.ix.freeByPod, m.ix.totalFree, dense.freeByRack, dense.freeByPod, dense.totalFree)
			}
			for _, h := range [...]struct {
				name    string
				touched bitset
				free    []int
				full    int
			}{
				{"rack", m.ix.touchedRacks, dense.freeByRack, m.ix.rackSlots},
				{"pod", m.ix.touchedPods, dense.freeByPod, m.ix.podSlots},
			} {
				for i := 0; i < 64*len(h.touched); i++ {
					want := i < len(h.free) && h.free[i] != h.full
					got := h.touched[i>>6]>>(i&63)&1 == 1
					if got != want {
						return fail(step, "%s %d touched bit %v, want %v", h.name, i, got, want)
					}
					if got && i >= 64 && h.name == "rack" {
						highWords++
					}
				}
			}
			return true
		}
		place := func(step string, spec tenant.Spec) bool {
			requests++
			m.head.refresh(m)
			o := &scanOracle{dense: dense}
			o.rackMax, o.podMax, o.dcMax = scanHeadroom(m)
			for i, want := range o.rackMax {
				if got := m.head.rackMax[i]; math.Float64bits(got) != math.Float64bits(want) {
					return fail(step, "rack %d headroom %v, scan %v", i, got, want)
				}
			}
			for i, want := range o.podMax {
				if got := m.head.podMax[i]; math.Float64bits(got) != math.Float64bits(want) {
					return fail(step, "pod %d headroom %v, scan %v", i, got, want)
				}
			}
			if math.Float64bits(m.head.dcMax) != math.Float64bits(o.dcMax) {
				return fail(step, "datacenter headroom %v, scan %v", m.head.dcMax, o.dcMax)
			}
			for _, useHeadroom := range []bool{false, true} {
				for span := scopeRack; span <= scopePod; span++ {
					got, gotC := m.candidates(&spec, span, useHeadroom)
					want, wantC := o.candidates(m, &spec, span, useHeadroom)
					if !slices.Equal(got, want) || gotC != wantC {
						return fail(step, "%s candidates (headroom %v) %v collapsing %d, scan %v collapsing %d",
							spanName(span), useHeadroom, got, gotC, want, wantC)
					}
					collapses += gotC
				}
			}
			o.headroomFilter = 0
			want, wantSt := o.findPlacement(m, &spec)
			headroomDrops += o.headroomFilter
			pl, err := m.Place(spec)
			if (err == nil) != (want != nil) || (err == nil && !slices.Equal(pl.Servers, want)) {
				return fail(step, "tenant %d placed on %v (%v), scanned search %v", spec.ID, pl, err, want)
			}
			d, _ := m.Decision(spec.ID)
			if d.ScopesEvaluated != wantSt.evaluated || d.ScopesCollapsed != wantSt.collapsed {
				return fail(step, "tenant %d searched %v collapsing %v, scanned search %v collapsing %v",
					spec.ID, d.ScopesEvaluated, d.ScopesCollapsed, wantSt.evaluated, wantSt.collapsed)
			}
			return true
		}
		if !checkSlots("build") {
			return false
		}
		nextID := 1
		for i, ops := 0, int(opsRaw)%100+100; i < ops; i++ {
			step := fmt.Sprintf("op %d", i)
			live := m.AdmittedIDs()
			switch r := rng.Float64(); {
			case r < 0.1 && len(live) > 0:
				if err := m.Remove(live[rng.Intn(len(live))]); err != nil {
					return fail(step, "remove: %v", err)
				}
			case r < 0.15:
				failed := []int{rng.Intn(tree.Servers()), rng.Intn(tree.Servers())}
				if _, err := m.Recover(failed, nil); err != nil {
					return fail(step, "recover %v: %v", failed, err)
				}
			case r < 0.2:
				if failed := m.FailedServerIDs(); len(failed) > 0 {
					m.RestoreServers(failed...)
				}
			default:
				// Tenants span one to many servers; a wide bandwidth range
				// lets loaded racks fall below a request's headroom.
				vms := 1 + rng.Intn(12)
				if rng.Intn(8) == 0 {
					vms = 1 + rng.Intn(40)
				}
				bw := float64(1+rng.Intn(40)) * 100 * mbps
				switch rng.Intn(20) {
				case 0:
					bw += 10 * gbps // over the line rate: no scope has the headroom
				case 1, 2, 3, 4:
					bw *= 2
				}
				spec := tenant.Spec{
					ID: nextID, Name: "touched", VMs: vms,
					Guarantee: tenant.Guarantee{
						BandwidthBps: bw,
						BurstBytes:   float64(1+rng.Intn(12)) * 2.5e3,
						DelayBound:   float64(rng.Intn(4)) * 5e-4,
						BurstRateBps: bw + float64(rng.Intn(8))*gbps,
					},
					FaultDomains: min(vms, 1+rng.Intn(3)),
				}
				nextID++
				if rng.Float64() < 0.1 {
					spec.Class = tenant.ClassBestEffort
					m.Place(spec)
				} else if !place(step, spec) {
					return false
				}
			}
			if !checkSlots(step) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// The walk must have met what it exists for: racks beyond the
	// first bitset word, untouched scopes collapsed, candidates the
	// headroom test drops.
	if highWords == 0 || collapses == 0 || headroomDrops == 0 {
		t.Errorf("%d requests: %d touched bits beyond word 0, %d scopes collapsed, %d dropped by headroom; want each > 0",
			requests, highWords, collapses, headroomDrops)
	}
}
