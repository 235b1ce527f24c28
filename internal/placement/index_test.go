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

// scanOracle is the scope search's filter as it was: every rack, then
// every pod, tested for free slots, the untouched ones beyond the first
// collapsed.
type scanOracle struct {
	dense *denseSlots
}

func (o *scanOracle) candidates(m *Manager, spec *tenant.Spec, span scopeHeight) (cands []int, collapsed int) {
	cfg := m.tree.Config()
	free, full := o.dense.freeByRack, cfg.SlotsPerServer*cfg.ServersPerRack
	if span == scopePod {
		free, full = o.dense.freeByPod, full*cfg.RacksPerPod
	}
	untouchedSeen := false
	for i, free := range free {
		if free < spec.VMs {
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
	for span, racksPer := range [...]int{1, m.tree.Config().RacksPerPod} {
		span := scopeHeight(span)
		if !m.scopeDelayOK(budget, span) {
			continue
		}
		cands, collapsed := o.candidates(m, spec, span)
		st.evaluated[span], st.collapsed[span] = len(cands), collapsed
		for j, i := range cands {
			if servers := m.tryScope(spec, &m.scratch, i*racksPer, (i+1)*racksPer, span); servers != nil {
				st.evaluated[span] = j + 1
				return servers, st
			}
		}
	}
	if m.scopeDelayOK(budget, scopeDC) && o.dense.totalFree >= spec.VMs {
		st.evaluated[scopeDC] = 1
		return m.tryScope(spec, &m.scratch, 0, m.tree.Racks(), scopeDC), st
	}
	return nil, st
}

// Property: under seeded place / remove / fail / recover churn on a tree
// of 132 racks in 66 pods, the touched-scope walk and the lazily counted
// slot index answer as the full scans did. Before every guaranteed
// request each height's candidates and collapsed count equal the
// scanned filter's; the request lands where the scanned search puts it,
// with the same per-height counts in the journal. Some requests ask for
// more than the line rate, which no layout across servers can carry:
// the search must evaluate the scopes for them and reject as the scan
// does. After every step every server's free slots, the rack, pod and
// datacenter sums and the touched bits equal the dense copy's.
func TestTouchedScopeIndexEquivalenceProperty(t *testing.T) {
	tree, err := topology.New(topology.Config{
		Pods: 66, RacksPerPod: 2, ServersPerRack: 2, SlotsPerServer: 3,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 2, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var requests, overLine, collapses, highWords int
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
			o := &scanOracle{dense: dense}
			for span := scopeRack; span <= scopePod; span++ {
				got, gotC := m.candidates(&spec, span)
				want, wantC := o.candidates(m, &spec, span)
				if !slices.Equal(got, want) || gotC != wantC {
					return fail(step, "%s candidates %v collapsing %d, scan %v collapsing %d",
						spanName(span), got, gotC, want, wantC)
				}
				collapses += gotC
			}
			want, wantSt := o.findPlacement(m, &spec)
			pl, err := m.Place(spec)
			if (err == nil) != (want != nil) || (err == nil && !slices.Equal(pl.Servers, want)) {
				return fail(step, "tenant %d placed on %v (%v), scanned search %v", spec.ID, pl, err, want)
			}
			d, _ := m.Decision(spec.ID)
			if d.ScopesEvaluated != wantSt.evaluated || d.ScopesCollapsed != wantSt.collapsed {
				return fail(step, "tenant %d searched %v collapsing %v, scanned search %v collapsing %v",
					spec.ID, d.ScopesEvaluated, d.ScopesCollapsed, wantSt.evaluated, wantSt.collapsed)
			}
			if spec.Guarantee.BandwidthBps > tree.Config().LinkBps && d.ScopesEvaluated != [3]int{} {
				if err == nil {
					return fail(step, "tenant %d over the line rate placed across servers on %v", spec.ID, pl.Servers)
				}
				overLine++
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
				// Tenants span one to many servers over a wide bandwidth
				// range.
				vms := 1 + rng.Intn(12)
				if rng.Intn(8) == 0 {
					vms = 1 + rng.Intn(40)
				}
				bw := float64(1+rng.Intn(40)) * 100 * mbps
				switch rng.Intn(20) {
				case 0:
					bw += 10 * gbps // over the line rate: every scope fails
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
	// first bitset word, untouched scopes collapsed, and requests over
	// the line rate whose scopes the search evaluated and rejected.
	if highWords == 0 || collapses == 0 || overLine == 0 {
		t.Errorf("%d requests: %d touched bits beyond word 0, %d scopes collapsed, %d over the line rate evaluated; want each > 0",
			requests, highWords, collapses, overLine)
	}
}
