package placement

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// wideTree is a mostly-untouched multi-pod tree for the scope-symmetry
// tests: enough racks and pods for the collapse to fire at both heights,
// small enough for the curve-materializing reference path.
func wideTree(t testing.TB, pods, racksPerPod, serversPerRack int, cpu float64) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:           pods,
		RacksPerPod:    racksPerPod,
		ServersPerRack: serversPerRack,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    5,
		PodOversub:     5,
		CPUPerServer:   cpu,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// wideSpec draws tenants from one VM to more than a rack's worth, with
// fault domains 1 or 2, so the stream reaches every scope height and
// includes tenants no rack (or no scope at all) can host.
func wideSpec(rng *stats.Rand, id int, cpu bool) tenant.Spec {
	vms := 1 + rng.Intn(6)
	if rng.Float64() < 0.3 {
		vms = 8 + rng.Intn(40)
	}
	spec := tenant.Spec{
		ID:   id,
		Name: "wide",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(20)) * 100 * mbps,
			BurstBytes:   float64(1+rng.Intn(12)) * 2.5e3,
			DelayBound:   float64(rng.Intn(3)) * 1e-3,
			BurstRateBps: float64(1+rng.Intn(10)) * gbps,
		},
		FaultDomains: 1 + rng.Intn(2),
	}
	if spec.FaultDomains > vms {
		spec.FaultDomains = vms
	}
	if cpu {
		// Tenths do not sum exactly in binary: the residue the snap in
		// freeSlot exists for.
		spec.CPUPerVM = float64(1+rng.Intn(15)) / 10
	}
	return spec
}

func samePlacement(a, b *tenant.Placement, errA, errB error) error {
	if (errA == nil) != (errB == nil) {
		return fmt.Errorf("decisions differ: %v vs %v", errA, errB)
	}
	if errA == nil && !reflect.DeepEqual(a.Servers, b.Servers) {
		return fmt.Errorf("servers differ: %v vs %v", a.Servers, b.Servers)
	}
	return nil
}

// The Manager (collapsing untouched racks and pods, uniform caps in
// untouched racks) must decide exactly like the oracle, which evaluates
// every scope, on a large mostly-untouched tree under place / remove /
// fail+recover / restore churn, with and without CPU capacities.
func TestFastPathEquivalenceMostlyUntouchedTree(t *testing.T) {
	for _, cpu := range []float64{0, 4} {
		for seed := uint64(1); seed <= 6; seed++ {
			tree := wideTree(t, 3, 8, 6, cpu) // 24 racks, 3 pods
			ref := newRefManager(tree, Options{})
			fast := NewManager(tree, Options{Workers: 3})
			rng := stats.NewRand(seed)
			var live, failed []int
			for op, id := 0, 1; op < 90; op++ {
				ctx := fmt.Sprintf("cpu %v seed %d op %d", cpu, seed, op)
				switch x := rng.Float64(); {
				case x < 0.2 && len(live) > 0:
					i := rng.Intn(len(live))
					if errR, errF := ref.Remove(live[i]), fast.Remove(live[i]); errR != nil || errF != nil {
						t.Fatalf("%s: remove: %v / %v", ctx, errR, errF)
					}
					live = append(live[:i], live[i+1:]...)
				case x < 0.27:
					s := rng.Intn(tree.Servers())
					repR := ref.Recover([]int{s}, nil, RecoverOptions{})
					repF := fast.Recover([]int{s}, nil, RecoverOptions{})
					if repR.Render() != repF.Render() {
						t.Fatalf("%s: recovery differs:\nref:\n%sfast:\n%s", ctx, repR.Render(), repF.Render())
					}
					failed = append(failed, s)
					live = fast.AdmittedIDs()
				case x < 0.32 && len(failed) > 0:
					ref.RestoreServers(failed...)
					fast.RestoreServers(failed...)
					failed = failed[:0]
				default:
					spec := wideSpec(rng, id, cpu > 0)
					id++
					plR, errR := ref.Place(spec)
					plF, errF := fast.Place(spec)
					if err := samePlacement(plR, plF, errR, errF); err != nil {
						t.Fatalf("%s: %v (spec %+v)", ctx, err, spec)
					}
					if errR == nil {
						live = append(live, spec.ID)
					}
				}
			}
			if ref.Accepted() == 0 || ref.Rejected() == 0 {
				t.Fatalf("cpu %v seed %d: stream too easy or too hard: %d accepts, %d rejects",
					cpu, seed, ref.Accepted(), ref.Rejected())
			}
			if err := fast.VerifyInvariants(); err != nil {
				t.Fatalf("cpu %v seed %d: %v", cpu, seed, err)
			}
		}
	}
}

// Decisions must not depend on the worker count when the parallel search
// runs over the filtered candidate list: the paper's 25×40×100 tree,
// mostly empty, with churn.
func TestWorkerCountDeterminismMostlyEmptyDatacenter(t *testing.T) {
	tree := wideTree(t, 25, 40, 100, 0)
	workers := []int{1, 2, 8}
	ms := make([]*Manager, len(workers))
	for i, w := range workers {
		ms[i] = NewManager(tree, Options{Workers: w})
	}
	rng := stats.NewRand(7)
	var live []int
	for id := 1; id <= 250; id++ {
		spec := wideSpec(rng, id, false)
		spec.VMs *= 3 // rack-sized and larger tenants: pod and datacenter scopes
		pl0, err0 := ms[0].Place(spec)
		for i := 1; i < len(ms); i++ {
			pl, err := ms[i].Place(spec)
			if err := samePlacement(pl0, pl, err0, err); err != nil {
				t.Fatalf("id %d: workers %d vs %d: %v", id, workers[0], workers[i], err)
			}
		}
		if err0 == nil {
			live = append(live, id)
		}
		if id%2 == 0 && len(live) > 10 {
			i := rng.Intn(len(live))
			for _, m := range ms {
				if err := m.Remove(live[i]); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	if a, r := ms[0].Accepted(), ms[0].Rejected(); a == 0 || r == 0 {
		t.Fatalf("stream must both accept and reject: %d / %d", a, r)
	}
}

// A tenant no scope can host costs one evaluated scope per height on an
// empty tree, however many racks and pods there are; the oracle
// evaluates them all. The journal shows both.
func TestInfeasibleTenantEvaluatesOneScopePerHeight(t *testing.T) {
	tree := wideTree(t, 4, 10, 12, 0)
	// 40 VMs bursting 15 KB each put over 312 KB on a ToR-down port
	// wherever they land.
	spec := tenant.Spec{
		ID: 1, Name: "bursty", VMs: 40, FaultDomains: 2,
		Guarantee: tenant.Guarantee{BandwidthBps: 250 * mbps, BurstBytes: 15e3, BurstRateBps: gbps},
	}
	m := NewManager(tree, Options{})
	ref := newRefManager(tree, Options{})
	for _, tc := range []struct {
		name string
		m    interface {
			EnableJournal(int)
			Place(tenant.Spec) (*tenant.Placement, error)
			Decision(int) (*Decision, bool)
		}
		evaluated, collapsed [3]int
	}{
		{"manager", m, [3]int{1, 1, 1}, [3]int{tree.Racks() - 1, tree.Pods() - 1, 0}},
		{"oracle", ref, [3]int{tree.Racks(), tree.Pods(), 1}, [3]int{}},
	} {
		tc.m.EnableJournal(0)
		if _, err := tc.m.Place(spec); err == nil {
			t.Fatalf("%s: expected rejection", tc.name)
		}
		d, _ := tc.m.Decision(1)
		if d.ScopesEvaluated != tc.evaluated || d.ScopesCollapsed != tc.collapsed {
			t.Errorf("%s: evaluated %v collapsed %v, want %v and %v",
				tc.name, d.ScopesEvaluated, d.ScopesCollapsed, tc.evaluated, tc.collapsed)
		}
	}
	want := fmt.Sprintf("search: rack 1 evaluated (+%d untouched collapsed), pod 1 evaluated (+%d untouched collapsed), datacenter 1 evaluated\n",
		tree.Racks()-1, tree.Pods()-1)
	if out := m.Explain(1); !strings.Contains(out, want) {
		t.Errorf("Explain lacks %q:\n%s", want, out)
	}

	// Once a rack is occupied it is evaluated on its own, ahead of the
	// first untouched one.
	m = NewManager(tree, Options{})
	m.EnableJournal(0)
	small := spec
	small.ID, small.VMs = 2, 6
	if _, err := m.Place(small); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Place(spec); err == nil {
		t.Fatal("expected rejection")
	}
	if d, _ := m.Decision(1); d.ScopesEvaluated != [3]int{2, 2, 1} ||
		d.ScopesCollapsed != [3]int{tree.Racks() - 2, tree.Pods() - 2, 0} {
		t.Errorf("one occupied rack: evaluated %v collapsed %v", d.ScopesEvaluated, d.ScopesCollapsed)
	}
}

// "Untouched" is read off the free-slot sums, so it must be false for a
// rack with a failed server — even an empty one, and even after the
// failed server's tenants have left — and true again once the server is
// restored. With CPU or memory declared, untouched must also mean the
// float capacities are exactly as built.
func TestUntouchedRackSoundness(t *testing.T) {
	tree := wideTree(t, 2, 3, 4, 4)
	m := NewManager(tree, Options{})
	untouched := func(r int) bool { return m.ix.rackUntouched(r) }
	podUntouched := func(p int) bool { return m.ix.freeByPod[p] == m.ix.podSlots }
	for r := 0; r < tree.Racks(); r++ {
		if !untouched(r) {
			t.Fatalf("rack %d of a new tree is not untouched", r)
		}
	}

	// An empty rack with a failed server.
	s := 2*4 + 1 // rack 2
	m.FailServers(s)
	if untouched(2) || podUntouched(0) {
		t.Fatal("rack/pod with a failed empty server counted as untouched")
	}
	m.RestoreServers(s)
	if !untouched(2) || !podUntouched(0) {
		t.Fatal("rack not untouched again after restore")
	}

	// A tenant on a server that fails and then leaves: its slots stay
	// hidden until the restore.
	spec := tenant.Spec{
		ID: 1, Name: "t", VMs: 3, CPUPerVM: 0.7,
		Guarantee: tenant.Guarantee{BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: gbps},
	}
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	host := pl.Servers[0]
	rack := tree.RackOfServer(host)
	if untouched(rack) {
		t.Fatal("rack hosting a tenant counted as untouched")
	}
	m.FailServers(host)
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if untouched(rack) {
		t.Fatal("rack with a failed server counted as untouched after its tenant left")
	}
	m.RestoreServers(host)
	if !untouched(rack) {
		t.Fatal("rack not untouched after tenant left and server was restored")
	}

	// Churn with CPU demands that do not sum exactly: whenever a server
	// has all slots free, its CPU is exactly the configured capacity.
	rng := stats.NewRand(3)
	var live []int
	for id := 10; id < 200; id++ {
		if _, err := m.Place(wideSpec(rng, id, true)); err == nil {
			live = append(live, id)
		}
		if len(live) > 0 && rng.Float64() < 0.6 {
			i := rng.Intn(len(live))
			if err := m.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		for s := 0; s < tree.Servers(); s++ {
			if m.ix.freeSlots[s] == 4 && m.freeCPU[s] != 4 {
				t.Fatalf("id %d: server %d has all slots free but %v CPU", id, s, m.freeCPU[s])
			}
		}
	}
}

// faultDomainsOKMap is the implementation faultDomainsOK replaced.
func faultDomainsOKMap(servers []int, domains int) bool {
	if domains <= 1 {
		return true
	}
	distinct := map[int]bool{}
	for _, s := range servers {
		distinct[s] = true
	}
	return len(distinct) >= domains
}

// newLayoutSorted is the implementation newLayout/build replaced: sort
// the per-VM list, then run-length encode while rolling up.
func newLayoutSorted(tree *topology.Tree, servers []int) layout {
	sorted := append([]int(nil), servers...)
	sort.Ints(sorted)
	lay := layout{total: len(servers)}
	for i := 0; i < len(sorted); {
		s := sorted[i]
		j := i
		for j < len(sorted) && sorted[j] == s {
			j++
		}
		cnt := j - i
		r := tree.RackOfServer(s)
		if len(lay.racks) == 0 || lay.racks[len(lay.racks)-1] != r {
			p := tree.PodOfRack(r)
			if len(lay.pods) == 0 || lay.pods[len(lay.pods)-1] != p {
				lay.pods = append(lay.pods, p)
				lay.podCnt = append(lay.podCnt, 0)
				lay.podRacks = append(lay.podRacks, 0)
			}
			lay.racks = append(lay.racks, r)
			lay.rackCnt = append(lay.rackCnt, 0)
			lay.rackSrv = append(lay.rackSrv, 0)
			lay.rackPod = append(lay.rackPod, len(lay.pods)-1)
			lay.podRacks[len(lay.pods)-1]++
		}
		ri := len(lay.racks) - 1
		lay.servers = append(lay.servers, s)
		lay.serverCnt = append(lay.serverCnt, cnt)
		lay.serverRack = append(lay.serverRack, ri)
		lay.rackCnt[ri] += cnt
		lay.rackSrv[ri]++
		lay.podCnt[lay.rackPod[ri]] += cnt
		i = j
	}
	return lay
}

// spreadEvenRef is the implementation spreadEven replaced: a remaining-
// capacity array over the whole server range, handed out round-robin
// into a per-VM list.
func spreadEvenRef(m *Manager, spec *tenant.Spec, lo, hi int) []int {
	remaining := make([]int, hi-lo)
	total := 0
	for i := range remaining {
		remaining[i] = m.maxVMsByResources(spec, lo+i)
		total += remaining[i]
	}
	if total < spec.VMs {
		return nil
	}
	servers := make([]int, 0, spec.VMs)
	for left := spec.VMs; left > 0; {
		for i := range remaining {
			if left > 0 && remaining[i] > 0 {
				servers = append(servers, lo+i)
				remaining[i]--
				left--
			}
		}
	}
	if !faultDomainsOKMap(servers, spec.FaultDomains) {
		return nil
	}
	return servers
}

func TestFaultDomainsAndLayoutMatchReplacedImplementations(t *testing.T) {
	tree := wideTree(t, 3, 4, 5, 0)
	lists := [][]int{
		{},
		{7},
		{3, 3, 3, 3},
		{0, 0, 1, 1, 2},                // packed
		{0, 1, 2, 0, 1, 2, 0},          // round-robin
		{59, 0, 20, 0, 59, 19, 21, 40}, // arbitrary, three pods
		{5, 4, 5, 4, 5, 4},
	}
	rng := stats.NewRand(1)
	for i := 0; i < 200; i++ {
		l := make([]int, 1+rng.Intn(40))
		span := 1 + rng.Intn(tree.Servers())
		for j := range l {
			l[j] = rng.Intn(span)
		}
		lists = append(lists, l)
	}
	for _, l := range lists {
		for domains := 0; domains <= 12; domains++ {
			if got, want := faultDomainsOK(l, domains), faultDomainsOKMap(l, domains); got != want {
				t.Errorf("faultDomainsOK(%v, %d) = %v, want %v", l, domains, got, want)
			}
		}
		want := newLayoutSorted(tree, l)
		got := newLayout(tree, l)
		if !layoutsEqual(&got, &want) {
			t.Errorf("newLayout(%v):\n got %+v\nwant %+v", l, got, want)
		}
		// The search's route: ascending (server, count) pairs into a
		// reused layout.
		var reused layout
		reused.build(tree, []int{1, 2, 30}, []int{2, 2, 2})
		reused.build(tree, want.servers, want.serverCnt)
		if !layoutsEqual(&reused, &want) {
			t.Errorf("build(%v, %v):\n got %+v\nwant %+v", want.servers, want.serverCnt, reused, want)
		}
	}
}

// layoutsEqual compares layouts field by field, an empty slice equal to
// a nil one.
func layoutsEqual(a, b *layout) bool {
	eq := func(x, y []int) bool { return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y)) }
	return a.total == b.total &&
		eq(a.servers, b.servers) && eq(a.serverCnt, b.serverCnt) && eq(a.serverRack, b.serverRack) &&
		eq(a.racks, b.racks) && eq(a.rackCnt, b.rackCnt) && eq(a.rackSrv, b.rackSrv) && eq(a.rackPod, b.rackPod) &&
		eq(a.pods, b.pods) && eq(a.podCnt, b.podCnt) && eq(a.podRacks, b.podRacks)
}

// spreadEven now scans only as far as the first spec.VMs servers with
// room and counts instead of listing; the per-VM list it leads to must
// be the one the full round-robin produced, on trees in any state.
func TestSpreadEvenMatchesReplacedImplementation(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cpu := float64(seed%2) * 4
		tree := wideTree(t, 2, 3, 4, cpu)
		m := NewManager(tree, Options{})
		rng := stats.NewRand(seed)
		for id := 1; id <= 25; id++ {
			m.Place(wideSpec(rng, id, cpu > 0))
		}
		m.FailServers(rng.Intn(tree.Servers()))
		var sc searchScratch
		for id := 100; id < 160; id++ {
			spec := wideSpec(rng, id, cpu > 0)
			rlo := rng.Intn(tree.Racks())
			rhi := rlo + 1 + rng.Intn(tree.Racks()-rlo)
			lo, _ := tree.ServersOfRack(rlo)
			_, hi := tree.ServersOfRack(rhi - 1)
			want := spreadEvenRef(m, &spec, lo, hi)
			var got []int
			if m.spreadEven(&spec, &sc, rlo, rhi) {
				got = sc.serversRoundRobin(spec.VMs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d racks [%d,%d) spec %+v:\n got %v\nwant %v", seed, rlo, rhi, spec, got, want)
			}
		}
	}
}

// With the default Workers: 0 the scope search forks only from
// fanOutServers candidate servers up. Decisions must not show which
// side of that line a request fell on: the default manager and a
// four-worker one return the same servers on a stream that starts
// below it (the paper's pods and racks at ten servers a rack, nearly
// empty: untouched racks collapse to one candidate), rises above it (one
// failed server in each of 400 racks makes them 400 distinct candidates)
// and falls back (restored).
func TestDefaultWorkersSameServersAcrossFanOutThreshold(t *testing.T) {
	tree := wideTree(t, 25, 40, 10, 0)
	perRack := tree.Config().ServersPerRack
	auto, four := NewManager(tree, Options{}), NewManager(tree, Options{Workers: 4})
	var oneEach []int
	for r := 0; r < 400; r++ {
		lo, _ := tree.ServersOfRack(r)
		oneEach = append(oneEach, lo+r%perRack)
	}
	rng := stats.NewRand(31)
	id := 0
	// phase places 25 tenants and returns the largest rack-height search
	// it saw, in servers: more than 25 candidates can only be racks.
	phase := func(name string) int {
		largest := 0
		for n := 0; n < 25; n++ {
			id++
			spec := wideSpec(rng, id, false)
			auto.cands = auto.cands[:0] // a single-server fit searches no racks
			plA, errA := auto.Place(spec)
			pl4, err4 := four.Place(spec)
			if err := samePlacement(plA, pl4, errA, err4); err != nil {
				t.Fatalf("%s, id %d: default vs 4 workers: %v", name, id, err)
			}
			if c := len(auto.cands); c > tree.Pods() && c*perRack > largest {
				largest = c * perRack
			}
		}
		return largest
	}
	if got := phase("empty tree"); got >= fanOutServers {
		t.Fatalf("empty tree: a search covered %d servers, want all below %d", got, fanOutServers)
	}
	auto.FailServers(oneEach...)
	four.FailServers(oneEach...)
	if got := phase("400 touched racks"); got < fanOutServers {
		t.Fatalf("400 touched racks: largest search covered %d servers, want one of %d or more", got, fanOutServers)
	}
	auto.RestoreServers(oneEach...)
	four.RestoreServers(oneEach...)
	if got := phase("restored"); got >= fanOutServers {
		t.Fatalf("restored: a search covered %d servers, want all below %d", got, fanOutServers)
	}
	if a, r := auto.Accepted(), auto.Rejected(); a == 0 || r == 0 {
		t.Fatalf("stream must both accept and reject: %d / %d", a, r)
	}
	if auto.Workers() < 1 || four.Workers() != 4 {
		t.Fatalf("worker counts: default %d, explicit %d", auto.Workers(), four.Workers())
	}
}
