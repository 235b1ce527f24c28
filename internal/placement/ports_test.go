package placement

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netcal"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// place100kTree is the benchmark's 100 K-host datacenter: 25 pods of 40
// racks of 100 servers, 8 slots each, 202,050 directed ports.
func place100kTree(t *testing.T) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods: 25, RacksPerPod: 40, ServersPerRack: 100, SlotsPerServer: 8,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 5, PodOversub: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// Building the 100 K-host tree and its manager allocates for the racks
// and pods, not for the servers or the ports: no per-port table exists
// until a tenant is admitted (about 21 MB when every port had a Port, a
// rate and capacity mirror, a state and a bound), and no per-server slot
// count until a slot is taken (0.8 MB when every server's count was
// written at build). Reading an untouched port's bound allocates
// nothing.
func TestPlace100kBuildAllocs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree := place100kTree(t)
	m := NewManager(tree, Options{})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Errorf("topology.New + NewManager allocated %d bytes for %d servers and %d ports, want at most 128 KB",
			got, tree.Servers(), tree.NumPorts())
	}
	pid := tree.NumPorts() - 1
	if allocs := testing.AllocsPerRun(100, func() { _ = m.QueueBound(pid) }); allocs != 0 {
		t.Errorf("QueueBound of an untouched port: %v allocations, want 0", allocs)
	}
	if pg := m.ports.pages[pid>>portPageBits]; m.QueueBound(pid) != 0 || pg != nil {
		t.Errorf("untouched port %d: bound %v, page allocated %v; want 0 and no page", pid, m.QueueBound(pid), pg != nil)
	}
}

// denseOracle is the manager's per-port state as it was kept before
// paging: one entry per port, fed the same adds and removes in the same
// order (the commit hook's mutations), with every loop over every port.
type denseOracle struct {
	tree     *topology.Tree
	st       []portState
	bound    []float64
	written  []bool // the port's state has been written
	contribs map[int][]portContribution
	log      []Mutation
}

func newDenseOracle(m *Manager) *denseOracle {
	n := m.tree.NumPorts()
	o := &denseOracle{
		tree: m.tree, st: make([]portState, n), bound: make([]float64, n),
		written: make([]bool, n), contribs: make(map[int][]portContribution),
	}
	m.SetCommitHook(func(mut *Mutation) error {
		o.log = append(o.log, *mut)
		return nil
	})
	return o
}

// catchUp applies the mutations logged since the last call. A placement's
// contributions are a pure function of its spec and servers.
func (o *denseOracle) catchUp(m *Manager) {
	for _, mut := range o.log {
		switch mut.Op {
		case MutPlace:
			if mut.Spec.Class == tenant.ClassBestEffort {
				continue
			}
			cs := m.contributions(&mut.Spec, mut.Servers)
			o.contribs[mut.Spec.ID] = cs
			for _, pc := range cs {
				o.st[pc.pid].add(pc.contribution)
				o.touch(pc.pid)
			}
		case MutRemove:
			for _, pc := range o.contribs[mut.TenantID] {
				o.st[pc.pid].remove(pc.contribution)
				o.touch(pc.pid)
			}
			delete(o.contribs, mut.TenantID)
		}
	}
	o.log = o.log[:0]
}

func (o *denseOracle) touch(pid int) {
	o.bound[pid] = queueBoundFast(o.tree.Port(pid).RateBps, o.st[pid].contribution, contribution{})
	o.written[pid] = true
}

// denseVerifyInvariants is VerifyInvariants as it was: a dense fresh
// table, every port compared.
func denseVerifyInvariants(m *Manager) error {
	fresh := make([]portState, m.tree.NumPorts())
	for _, at := range m.admitted {
		if at.placement.Spec.Class == tenant.ClassBestEffort {
			continue
		}
		for _, pc := range m.contributions(&at.placement.Spec, at.placement.Servers) {
			fresh[pc.pid].add(pc.contribution)
		}
	}
	var ar netcal.Arena
	for pid := range fresh {
		port := m.tree.Port(pid)
		got, want := m.ports.state(pid), fresh[pid]
		if math.Abs(got.Rate-want.Rate) > 1e-6 || math.Abs(got.Burst-want.Burst) > 1e-3 ||
			math.Abs(got.Peak-want.Peak) > 1e-3 || math.Abs(got.Seed-want.Seed) > 1e-3 ||
			got.tenants != want.tenants {
			return fmt.Errorf("port %d state drift: have %+v want %+v", pid, got, want)
		}
		if want.tenants > 0 {
			if want.Rate > port.RateBps {
				return fmt.Errorf("port %d violates constraint 1: admitted rate %v > line rate %v", pid, want.Rate, port.RateBps)
			}
			ar.Reset()
			b := netcal.QueueBound(want.contribution.curveIn(&ar), netcal.NewRateLatency(port.RateBps, 0))
			if b > port.QueueCapacity()+1e-9 {
				return fmt.Errorf("port %d violates constraint 1: bound %v > capacity %v", pid, b, port.QueueCapacity())
			}
		}
		if live := queueBoundFast(port.RateBps, got.contribution, contribution{}); math.Abs(m.QueueBound(pid)-live) > 1e-9 {
			return fmt.Errorf("port %d bound-cache drift: cached %v live %v", pid, m.QueueBound(pid), live)
		}
	}
	return m.verifyUpCaps()
}

// Property: under seeded place / remove / fail / recover churn on a tree
// of several pages, the paged state equals the dense oracle after every
// step: each port's state (bit for bit) and cached bound, the pages
// allocated (exactly those with a written port), and VerifyInvariants'
// verdict and first failing port.
func TestPagedPortStateEquivalenceProperty(t *testing.T) {
	tree, err := topology.New(topology.Config{
		Pods: 4, RacksPerPod: 4, ServersPerRack: 16, SlotsPerServer: 4,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 2, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages := (tree.NumPorts() + portPageSize - 1) / portPageSize; pages < 3 {
		t.Fatalf("tree spans %d pages, want several", pages)
	}
	f := func(seed uint64, opsRaw uint8) bool {
		m := NewManager(tree, Options{})
		o := newDenseOracle(m)
		rng := stats.NewRand(seed)
		check := func(step string) bool {
			o.catchUp(m)
			fail := func(format string, args ...any) bool {
				t.Logf("seed %#x ops %#x, after %s: %s", seed, opsRaw, step, fmt.Sprintf(format, args...))
				return false
			}
			for pid := 0; pid < tree.NumPorts(); pid++ {
				if got := m.ports.state(pid); got != o.st[pid] {
					return fail("port %d state %+v, dense %+v", pid, got, o.st[pid])
				}
				if got := m.QueueBound(pid); got != o.bound[pid] {
					return fail("port %d bound %v, dense %v", pid, got, o.bound[pid])
				}
			}
			for pg := range m.ports.pages {
				written := false
				for pid := pg * portPageSize; pid < min((pg+1)*portPageSize, tree.NumPorts()); pid++ {
					written = written || o.written[pid]
				}
				if written != (m.ports.pages[pg] != nil) {
					return fail("page %d allocated %v, written %v", pg, m.ports.pages[pg] != nil, written)
				}
			}
			got, want := m.VerifyInvariants(), denseVerifyInvariants(m)
			if (got == nil) != (want == nil) ||
				(got != nil && strings.SplitN(got.Error(), ":", 2)[0] != strings.SplitN(want.Error(), ":", 2)[0]) {
				return fail("VerifyInvariants = %v, dense %v", got, want)
			}
			return true
		}
		if !check("build") {
			return false
		}
		nextID := 1
		for i, ops := 0, int(opsRaw)%60+40; i < ops; i++ {
			live := m.AdmittedIDs()
			switch r := rng.Float64(); {
			case r < 0.15 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				if err := m.Remove(id); err != nil {
					t.Logf("remove %d: %v", id, err)
					return false
				}
			case r < 0.2:
				failed := []int{rng.Intn(tree.Servers()), rng.Intn(tree.Servers())}
				if _, err := m.Recover(failed, nil); err != nil {
					t.Logf("recover %v: %v", failed, err)
					return false
				}
			case r < 0.25:
				if failed := m.FailedServerIDs(); len(failed) > 0 {
					m.RestoreServers(failed...)
				}
			default:
				// One tenant in six asks for up to one fault domain per VM,
				// which spreads it over racks and pods.
				vms := 1 + rng.Intn(80)
				fd := min(vms, 1+rng.Intn(3))
				if rng.Intn(6) == 0 {
					fd = 1 + rng.Intn(vms)
				}
				spec := tenant.Spec{
					ID: nextID, Name: "paged", VMs: vms,
					Guarantee: tenant.Guarantee{
						BandwidthBps: float64(1+rng.Intn(10)) * 100 * mbps,
						BurstBytes:   float64(1+rng.Intn(12)) * 2.5e3,
						DelayBound:   float64(rng.Intn(4)) * 5e-4,
						BurstRateBps: float64(1+rng.Intn(8)) * gbps,
					},
					FaultDomains: fd,
				}
				if rng.Float64() < 0.1 {
					spec.Class = tenant.ClassBestEffort
				}
				nextID++
				m.Place(spec)
			}
			if !check(fmt.Sprintf("op %d", i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
