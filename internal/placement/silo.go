package placement

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/netcal"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// Common sentinel errors.
var (
	// ErrRejected reports that admission control found no valid
	// placement for a tenant request.
	ErrRejected = errors.New("placement: request rejected")
	// ErrUnknownTenant reports a Remove of a tenant that is not
	// admitted.
	ErrUnknownTenant = errors.New("placement: unknown tenant")
)

// Algorithm is the common interface of Silo and the baseline placers.
type Algorithm interface {
	// Place admits the tenant and returns where its VMs landed, or
	// ErrRejected (wrapped) if no valid placement exists.
	Place(spec tenant.Spec) (*tenant.Placement, error)
	// Remove releases an admitted tenant's resources.
	Remove(id int) error
	// Name identifies the algorithm in experiment output.
	Name() string
}

// Options tunes the Silo manager; the zero value is the paper's
// configuration.
type Options struct {
	// MTUBytes seeds packet-scale bursts in arrival curves; defaults
	// to 1500.
	MTUBytes float64
	// PlainAggregation disables the hose-model tightening of
	// aggregated arrival curves (ablation; paper §4.2.2 derives the
	// tighter form).
	PlainAggregation bool
	// DelayCheckUsesBound makes constraint 2 use current queue bounds
	// instead of queue capacities (ablation; the paper argues
	// capacities keep admission composable under churn, §4.2.3).
	DelayCheckUsesBound bool
}

// Manager is Silo's placement manager (admission control + VM
// placement).
type Manager struct {
	tree *topology.Tree
	opts Options

	// ix caches free-slot sums per server/rack/pod/datacenter so the
	// scope search skips exhausted scopes in O(1) (placement on 100 K
	// hosts is dominated by scanning otherwise).
	ix *slotIndex
	// freeCPU and freeMem are per-server non-network capacities (nil
	// when the topology declares none).
	freeCPU []float64
	freeMem []float64

	// ports holds the incrementally maintained aggregate arrival-curve
	// state (scalar rate/burst/peak/seed sums) per directed port;
	// Place adds a tenant's contributions, Remove subtracts them, and
	// admission never resums the admitted set.
	ports []portState
	// portRate and portCap mirror each port's line rate and queue
	// capacity into flat arrays so the admission hot path indexes them
	// without touching topology Port structs.
	portRate []float64
	portCap  []float64
	// bounds caches each port's current queue bound, updated on every
	// Place/Remove that touches the port (closed form, O(1) per port).
	bounds []float64
	// head summarizes per-rack/per-pod port rate headroom for sound
	// scope skipping; revalidated lazily via dirty marks.
	head *headroomIndex

	// upLo/upHi and downLo/downHi are the port-ID ranges of the NIC-up
	// and ToR-down families, for mapping a touched port back to its
	// rack.
	upLo, upHi     int
	downLo, downHi int

	admitted map[int]*admittedTenant

	// memo, cands and scratch are the scope search's reusable buffers:
	// the per-request contribution memo, the filtered candidate list of
	// one height, and the candidate layout. They grow on first use to the
	// size of a request (or the number of racks), never to the size of
	// the tree.
	memo    reqMemo
	cands   []int
	scratch searchScratch
	// upCaps remembers, per server and guarantee class, how many VMs the
	// server's NIC-up port takes; portTouched forgets a server's entries.
	upCaps upCapMemo

	acceptedCount int
	rejectedCount int

	// mx is the optional telemetry bundle (EnableMetrics); nil costs
	// one branch per Place/Remove.
	mx *Metrics

	// journal is the optional admission decision log (EnableJournal);
	// nil costs one branch on each accept/reject tail.
	journal *journal

	// hook is the optional write-ahead commit hook (SetCommitHook):
	// called with every mutation before it is applied; an error aborts
	// the mutation. hookErr holds the first failure from a void mutator
	// (FailServers/RestoreServers) that cannot return it.
	hook    func(*Mutation) error
	hookErr error
}

type admittedTenant struct {
	placement *tenant.Placement
	// contribs maps port ID -> this tenant's contribution, retained so
	// Remove can subtract exactly what Place added.
	contribs map[int]contribution
}

// NewManager returns a Silo placement manager over the given
// datacenter.
func NewManager(tree *topology.Tree, opts Options) *Manager {
	if opts.MTUBytes <= 0 {
		opts.MTUBytes = 1500
	}
	m := &Manager{
		tree:     tree,
		opts:     opts,
		ix:       newSlotIndex(tree),
		ports:    make([]portState, tree.NumPorts()),
		portRate: make([]float64, tree.NumPorts()),
		portCap:  make([]float64, tree.NumPorts()),
		bounds:   make([]float64, tree.NumPorts()),
		head:     newHeadroomIndex(tree),
		admitted: make(map[int]*admittedTenant),
	}
	m.memo.upSlot = -1
	for pid := 0; pid < tree.NumPorts(); pid++ {
		p := tree.Port(pid)
		m.portRate[pid] = p.RateBps
		m.portCap[pid] = p.QueueCapacity()
	}
	m.upLo, m.upHi = tree.ServerUpPortRange()
	m.downLo, m.downHi = tree.RackDownPortRange()
	if c := tree.Config().CPUPerServer; c > 0 {
		m.freeCPU = make([]float64, tree.Servers())
		for i := range m.freeCPU {
			m.freeCPU[i] = c
		}
	}
	if mem := tree.Config().MemoryPerServer; mem > 0 {
		m.freeMem = make([]float64, tree.Servers())
		for i := range m.freeMem {
			m.freeMem[i] = mem
		}
	}
	return m
}

// takeSlot and freeSlot keep the cached sums consistent, including
// non-network resources.
func (m *Manager) takeSlot(server int, spec *tenant.Spec) {
	m.ix.take(server)
	if m.freeCPU != nil {
		m.freeCPU[server] -= spec.CPUPerVM
	}
	if m.freeMem != nil {
		m.freeMem[server] -= spec.MemoryPerVM
	}
}

func (m *Manager) freeSlot(server int, spec *tenant.Spec) {
	m.ix.free(server)
	if m.freeCPU != nil {
		m.freeCPU[server] += spec.CPUPerVM
	}
	if m.freeMem != nil {
		m.freeMem[server] += spec.MemoryPerVM
	}
	m.snapResources(server)
}

// snapResources resets server s's free CPU and memory to the configured
// capacity once all its slots are free again. The floats are maintained
// by -= and +=, so a server that hosted and released tenants would
// otherwise carry rounding residue; with the snap, "all slots free"
// implies "exactly as built", which the untouched-scope collapse in
// findPlacement relies on.
func (m *Manager) snapResources(s int) {
	if m.freeCPU == nil && m.freeMem == nil {
		return
	}
	cfg := m.tree.Config()
	if m.ix.freeSlots[s] != cfg.SlotsPerServer {
		return
	}
	if m.freeCPU != nil {
		m.freeCPU[s] = cfg.CPUPerServer
	}
	if m.freeMem != nil {
		m.freeMem[s] = cfg.MemoryPerServer
	}
}

// maxVMsByResources caps a server's VM count by slots, CPU and memory.
func (m *Manager) maxVMsByResources(spec *tenant.Spec, server int) int {
	k := m.ix.freeSlots[server]
	if m.freeCPU != nil && spec.CPUPerVM > 0 {
		if byCPU := int(m.freeCPU[server] / spec.CPUPerVM); byCPU < k {
			k = byCPU
		}
	}
	if m.freeMem != nil && spec.MemoryPerVM > 0 {
		if byMem := int(m.freeMem[server] / spec.MemoryPerVM); byMem < k {
			k = byMem
		}
	}
	if k < 0 {
		k = 0
	}
	return k
}

// Name implements Algorithm.
func (m *Manager) Name() string { return "silo" }

// Accepted and Rejected report cumulative admission counters.
func (m *Manager) Accepted() int { return m.acceptedCount }

// Rejected reports the number of rejected requests.
func (m *Manager) Rejected() int { return m.rejectedCount }

// FreeSlots reports the number of free VM slots on server s.
func (m *Manager) FreeSlots(s int) int { return m.ix.freeSlots[s] }

// QueueBound reports the current worst-case queuing delay (seconds) at
// the given directed port.
func (m *Manager) QueueBound(portID int) float64 { return m.bounds[portID] }

// Placement returns the admitted placement for a tenant ID, if any.
func (m *Manager) Placement(id int) (*tenant.Placement, bool) {
	at, ok := m.admitted[id]
	if !ok {
		return nil, false
	}
	return at.placement, true
}

// portTouched refreshes the per-port derived caches after the port's
// aggregate state changed: the cached queue bound, the dirty mark of the
// rack whose headroom summary the port feeds, and, for a NIC-up port,
// its server's up-cap entries.
func (m *Manager) portTouched(pid int) {
	m.bounds[pid] = queueBoundFast(m.portRate[pid], &m.ports[pid], contribution{})
	switch {
	case pid >= m.upLo && pid < m.upHi:
		m.head.markRack(m.tree.RackOfServer(pid - m.upLo))
		m.upCaps.forget(pid - m.upLo)
	case pid >= m.downLo && pid < m.downHi:
		m.head.markRack(m.tree.RackOfServer(pid - m.downLo))
	}
}

// Place implements Algorithm. When metrics are attached it also times
// the request and classifies its outcome; without them the wrapper is
// one branch (no clock reads).
func (m *Manager) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if m.mx == nil {
		return m.place(spec)
	}
	start := time.Now()
	pl, err := m.place(spec)
	m.mx.notePlace(time.Since(start), err, spec.Guarantee.DelayBound > 0)
	return pl, err
}

// place runs admission control and placement. It proceeds scope by
// scope — single server, then each rack, each pod, then the whole
// datacenter — and within a scope first packs greedily and then, if
// the packed layout violates a queuing constraint, retries with an
// even spread (paper Figure 5: 3/3/3 beats 4/4/1).
func (m *Manager) place(spec tenant.Spec) (*tenant.Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.admitted[spec.ID]; dup {
		return nil, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	if spec.Class == tenant.ClassBestEffort {
		// Best-effort tenants bypass network admission (paper §4.4);
		// they ride the low priority class and only consume slots.
		return m.placeBestEffort(spec)
	}

	// The search counters exist only for the journal.
	var (
		stats searchStats
		st    *searchStats
	)
	if m.journal != nil {
		st = &stats
	}
	servers := m.findPlacement(&spec, st)
	if servers == nil {
		if err := m.logMutation(&Mutation{Op: MutReject, TenantID: spec.ID}); err != nil {
			return nil, err
		}
		m.rejectedCount++
		if m.journal != nil {
			m.journal.record(m.explainReject(&spec).withSearch(st))
		}
		return nil, fmt.Errorf("%w: tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	if err := m.logMutation(&Mutation{Op: MutPlace, Spec: spec, Servers: servers}); err != nil {
		return nil, err
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	contribs := m.contributions(&spec, servers)
	if m.journal != nil {
		// Before the port-state mutation below, so BoundBeforeSec sees
		// the pre-admission aggregates.
		m.journal.record(m.recordAccept(&spec, servers).withSearch(st))
	}
	for pid, c := range contribs {
		m.ports[pid].add(c)
		m.portTouched(pid)
	}
	for _, s := range servers {
		m.takeSlot(s, &spec)
	}
	m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: contribs}
	m.acceptedCount++
	return pl, nil
}

// Remove implements Algorithm.
func (m *Manager) Remove(id int) error {
	at, ok := m.admitted[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := m.logMutation(&Mutation{Op: MutRemove, TenantID: id}); err != nil {
		return err
	}
	m.mx.noteRemove()
	m.detach(at)
	return nil
}

// detach releases an admitted tenant's port contributions and slots —
// the shared core of Remove and the recovery path's evacuation step.
func (m *Manager) detach(at *admittedTenant) {
	for pid, c := range at.contribs {
		m.ports[pid].remove(c)
		m.portTouched(pid)
	}
	for _, s := range at.placement.Servers {
		m.freeSlot(s, &at.placement.Spec)
	}
	delete(m.admitted, at.placement.Spec.ID)
}

func (m *Manager) placeBestEffort(spec tenant.Spec) (*tenant.Placement, error) {
	eff := m.ix.freeSlots
	if m.freeCPU != nil || m.freeMem != nil {
		eff = make([]int, len(m.ix.freeSlots))
		for s := range eff {
			eff[s] = m.maxVMsByResources(&spec, s)
		}
	}
	servers := packGreedy(m.tree, eff, m.ix, spec.VMs, spec.FaultDomains)
	if servers == nil {
		if err := m.logMutation(&Mutation{Op: MutReject, TenantID: spec.ID}); err != nil {
			return nil, err
		}
		m.rejectedCount++
		if m.journal != nil {
			m.journal.record(&Decision{
				TenantID: spec.ID, Name: spec.Name, VMs: spec.VMs, LimitingPort: -1,
				Reason: fmt.Sprintf("best-effort: no slot-feasible packing for %d VMs", spec.VMs),
			})
		}
		return nil, fmt.Errorf("%w: best-effort tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	if err := m.logMutation(&Mutation{Op: MutPlace, Spec: spec, Servers: servers}); err != nil {
		return nil, err
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	if m.journal != nil {
		lay := newLayout(m.tree, servers)
		m.journal.record(&Decision{
			TenantID: spec.ID, Name: spec.Name, VMs: spec.VMs, Accepted: true,
			Servers: append([]int(nil), lay.servers...), Span: spanName(lay.span()),
			LimitingPort: -1,
		})
	}
	for _, s := range servers {
		m.takeSlot(s, &spec)
	}
	m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: map[int]contribution{}}
	m.acceptedCount++
	return pl, nil
}

// reqMemo caches, for the duration of one admission request, the
// contribution a cut of k local VMs makes at a server NIC-up port and
// the contribution of the n−k remote VMs at the ToR down port, per
// candidate k and scope span. Ports within a family share line rates,
// so these depend only on (k, span) — the seed recomputed them (and
// rebuilt their curves) for every server probed. The manager keeps one
// and refills it per request.
type reqMemo struct {
	upC   []contribution
	downC [3][]contribution
	// emptyOK[span][k] precomputes serverPortsOK for a server whose
	// NIC-up and ToR-down ports carry no admitted traffic yet — the
	// common case on a lightly loaded tree, where the per-server probe
	// collapses to an array lookup. Port rates and capacities are
	// uniform within each family, so one verdict covers every such
	// server.
	emptyOK [3][]bool
	// emptyMax[span] certifies, once per request, what no server can
	// host: no VM count above it fits even an empty server's ports, and
	// a port's queue bound never falls as its load grows
	// (TestQueueBoundMonotoneInPortLoadProperty), so none fits a loaded
	// server's either. It is the largest k whose empty-server bounds stay
	// within capacity up to monoSlack (0: none), so the float rounding of
	// the closed form cannot let a loaded server pass a k it refuses.
	emptyMax [3]int
	// upSlot is the request's class in the manager's upCapMemo (-1: the
	// memo is off and every probe scans).
	upSlot int
}

// monoSlack is the relative rounding emptyMax grants the closed-form
// queue bound. Adding load to a port never lowers the exact bound, but
// the computed one can dip by float cancellation: by at most 1.5e-12
// of the bound in 12 M one-scalar raises measured, and not at all in
// 24 M loaded-versus-empty comparisons.
const monoSlack = 1e-9

func (m *Manager) fillReqMemo(spec *tenant.Spec) {
	n := spec.VMs
	maxK := m.tree.Config().SlotsPerServer
	if maxK > n {
		maxK = n
	}
	g := spec.Guarantee
	link := m.tree.Config().LinkBps
	memo := &m.memo
	memo.upSlot = m.upCaps.slot(g, m.tree.Servers(), m.tree.Config().SlotsPerServer)
	memo.upC = memo.upC[:0]
	for k := 0; k <= maxK; k++ {
		memo.upC = append(memo.upC, m.cutContribution(k, n, g, link, 0))
	}
	upID := m.tree.ServerUpPortID(0)
	downID := m.tree.RackDownPortID(0)
	upRate, upCap := m.portRate[upID], m.portCap[upID]+1e-12
	downRate, downCap := m.portRate[downID], m.portCap[downID]+1e-12
	var empty portState
	for span := scopeRack; span <= scopeDC; span++ {
		infl := m.inflation(span, topology.LevelRack, topology.Down)
		downC, oks, kMax := memo.downC[span][:0], memo.emptyOK[span][:0], 0
		for k := 0; k <= maxK; k++ {
			c := m.cutContribution(n-k, n, g, math.Inf(1), infl)
			downC = append(downC, c)
			// A zero contribution bounds to 0.
			upB := queueBoundFast(upRate, &empty, memo.upC[k])
			downB := queueBoundFast(downRate, &empty, c)
			oks = append(oks, upB <= upCap && downB <= downCap)
			if upB <= upCap*(1+monoSlack) && downB <= downCap*(1+monoSlack) {
				kMax = k
			}
		}
		memo.downC[span], memo.emptyOK[span], memo.emptyMax[span] = downC, oks, kMax
	}
}

// searchScratch holds the search's candidate layout: the distinct
// servers it would use, ascending, the VM count on each, and the
// per-rack and per-pod roll-up. tryScope refills it for every
// candidate; nothing in it outlives the request.
type searchScratch struct {
	srv, cnt []int
	caps     []int // spreadEven: capacity of srv[i]
	lay      layout
}

// searchStats counts, per scope height, how many candidate scopes a
// request's search evaluated in first-fit order and how many untouched
// ones it skipped as copies of an evaluated one. Only the journal asks
// for it; the search is handed nil otherwise.
type searchStats struct {
	evaluated, collapsed [3]int
}

// findPlacement searches scopes in height order and returns the chosen
// server per VM, or nil.
func (m *Manager) findPlacement(spec *tenant.Spec, st *searchStats) []int {
	g := spec.Guarantee
	// Constraint 2 pre-check per scope height: the worst path inside a
	// scope has a fixed queue-capacity sum; scopes whose sum exceeds d
	// cannot host the tenant (unless it fits a single server, where no
	// network port is crossed).
	delayBudget := g.DelayBound
	if delayBudget <= 0 {
		delayBudget = math.Inf(1)
	}

	// Scope 0: single server (no network traffic, no constraints
	// beyond slots and fault domains). Racks without enough free slots
	// cannot contain a server with enough either.
	if spec.FaultDomains <= 1 && spec.VMs <= m.tree.Config().SlotsPerServer {
		for r := 0; r < m.tree.Racks(); r++ {
			if m.ix.freeByRack[r] < spec.VMs {
				continue
			}
			lo, hi := m.tree.ServersOfRack(r)
			for s := lo; s < hi; s++ {
				if m.maxVMsByResources(spec, s) >= spec.VMs {
					servers := make([]int, spec.VMs)
					for i := range servers {
						servers[i] = s
					}
					return servers
				}
			}
		}
	}

	m.fillReqMemo(spec)
	// Port-headroom skipping is sound only for tenants that put
	// nonzero traffic on the network (n >= 2: every hosting server
	// then carries at least B of arrival rate on its NIC-up and
	// ToR-down ports, see headroomIndex).
	useHeadroom := spec.VMs >= 2
	if useHeadroom {
		m.head.refresh(m)
	}

	// Scopes 1 and 2: single rack, then single pod.
	racksPerPod := m.tree.Config().RacksPerPod
	for _, h := range [...]struct {
		span     scopeHeight
		free     []int
		full     int
		headMax  []float64
		racksPer int
	}{
		{scopeRack, m.ix.freeByRack, m.ix.rackSlots, m.head.rackMax, 1},
		{scopePod, m.ix.freeByPod, m.ix.podSlots, m.head.podMax, racksPerPod},
	} {
		if !m.scopeDelayOK(delayBudget, h.span) {
			continue
		}
		// Candidates are the scopes with the slots (and, by the
		// headroom index, the port rate) to host the tenant, minus all
		// untouched ones but the first. Scope symmetry: a rack or pod
		// whose free-slot sum equals its capacity hosts no VM and has
		// no failed server, so every port inside it is exactly empty
		// (portState.remove clamps to zero with its last tenant) and
		// every server has its full CPU and memory (snapResources).
		// tryScope reads nothing else, so on two untouched scopes of one
		// height it returns translations of one answer: if the first
		// fails all fail, and if it succeeds it is the lowest-index
		// success among them. First-fit order, and so every decision,
		// is unchanged. The test oracle evaluates them all.
		cands, collapsed, untouchedSeen := m.cands[:0], 0, false
		for i, free := range h.free {
			if free < spec.VMs || (useHeadroom && g.BandwidthBps > h.headMax[i]+headroomSlack) {
				continue
			}
			if free == h.full {
				if untouchedSeen {
					collapsed++
					continue
				}
				untouchedSeen = true
			}
			cands = append(cands, i)
		}
		m.cands = cands
		// First fit: the lowest-index candidate that hosts the tenant.
		tried, servers := len(cands), []int(nil)
		for j, i := range cands {
			if servers = m.tryScope(spec, &m.scratch, i*h.racksPer, (i+1)*h.racksPer, h.span); servers != nil {
				tried = j + 1
				break
			}
		}
		if st != nil {
			st.evaluated[h.span], st.collapsed[h.span] = tried, collapsed
		}
		if servers != nil {
			return servers
		}
	}
	// Scope 3: whole datacenter.
	if m.scopeDelayOK(delayBudget, scopeDC) && m.ix.totalFree >= spec.VMs &&
		!(useHeadroom && g.BandwidthBps > m.head.dcMax+headroomSlack) {
		if st != nil {
			st.evaluated[scopeDC] = 1
		}
		return m.tryScope(spec, &m.scratch, 0, m.tree.Racks(), scopeDC)
	}
	return nil
}

type scopeHeight int

const (
	scopeRack scopeHeight = iota
	scopePod
	scopeDC
)

// scopeDelayOK checks constraint 2 for the worst path within a scope.
// Queue capacities are uniform per level in the tree, so representative
// ports suffice.
func (m *Manager) scopeDelayOK(budget float64, h scopeHeight) bool {
	if math.IsInf(budget, 1) {
		return true
	}
	t := m.tree
	nic := t.ServerUpPort(0).QueueCapacity()
	rackDown := t.RackDownPort(0).QueueCapacity()
	rackUp := t.RackUpPort(0).QueueCapacity()
	podDown := t.PodDownPort(0).QueueCapacity()
	podUp := t.PodUpPort(0).QueueCapacity()
	coreDown := t.CoreDownPort(0).QueueCapacity()
	var worst float64
	switch h {
	case scopeRack:
		worst = nic + rackDown
	case scopePod:
		worst = nic + rackUp + podDown + rackDown
	default:
		worst = nic + rackUp + podUp + coreDown + podDown + rackDown
	}
	return worst <= budget+1e-15
}

// tryScope attempts to place all VMs within racks [rlo, rhi), which the
// caller knows to hold enough free slots. Pass 1 packs greedily
// (per-server count capped by the server-local queuing constraints);
// pass 2 spreads evenly. Each pass leaves its layout in sc as ascending
// (server, count) pairs, which is verified against the full constraint
// set before the per-VM server list is written out.
func (m *Manager) tryScope(spec *tenant.Spec, sc *searchScratch, rlo, rhi int, span scopeHeight) []int {
	// Pass 1: greedy pack, honoring the per-server VM cap derived from
	// the server's own up/down port constraints (paper §4.2.3).
	if m.packWithCaps(spec, sc, rlo, rhi, span, nil) && m.layoutValid(spec, sc, nil) {
		return sc.serversPacked(spec.VMs)
	}
	// Pass 2: spread evenly across candidate servers, VMs going
	// round-robin. It runs even when no server passed pass 1's caps:
	// those assume unbounded ingress to the ToR, and layoutValid checks
	// the spread against the finite ingress it actually has.
	if m.spreadEven(spec, sc, rlo, rhi) && m.layoutValid(spec, sc, nil) {
		return sc.serversRoundRobin(spec.VMs)
	}
	return nil
}

// serversPacked writes out the per-VM server list of a packed layout:
// VMs fill the servers in index order.
func (sc *searchScratch) serversPacked(n int) []int {
	servers := make([]int, 0, n)
	for i, s := range sc.srv {
		for j := 0; j < sc.cnt[i]; j++ {
			servers = append(servers, s)
		}
	}
	return servers
}

// serversRoundRobin writes out the per-VM server list of a spread
// layout: round j hands one VM to every server holding at least j.
func (sc *searchScratch) serversRoundRobin(n int) []int {
	servers := make([]int, 0, n)
	for round := 1; len(servers) < n; round++ {
		for i, s := range sc.srv {
			if sc.cnt[i] >= round {
				servers = append(servers, s)
			}
		}
	}
	return servers
}

// maxVMsOnServer returns the largest VM count on server s compatible
// with the queuing constraints at s's NIC port and its ToR down port,
// assuming the remaining VMs sit elsewhere (worst case for both
// ports). span is the scope being attempted, which sets the burst
// inflation the rest of the tenant's traffic accrues en route.
func (m *Manager) maxVMsOnServer(spec *tenant.Spec, s int, span scopeHeight) int {
	// No count an empty server refuses fits a loaded one
	// (reqMemo.emptyMax), so the probes start at most there.
	limit := min(m.maxVMsByResources(spec, s), spec.VMs, m.memo.emptyMax[span])
	if limit == 0 {
		return 0
	}
	// Up to n/2 the NIC-up cut does not depend on n (upCapMemo), so the
	// memo answers for the NIC-up port: no count above top fits it.
	top, upMemo, checked := limit, m.memo.upSlot >= 0 && 2*limit <= spec.VMs, false
	if upMemo {
		if top, checked = m.upFit(s, limit); top == 0 {
			return 0
		}
	}
	up := m.tree.ServerUpPortID(s)
	down := m.tree.RackDownPortID(s)
	upSt, downSt := &m.ports[up], &m.ports[down]
	if upSt.tenants == 0 && downSt.tenants == 0 {
		oks := m.memo.emptyOK[span]
		for k := top; k >= 1; k-- {
			if oks[k] {
				return k
			}
		}
		return 0
	}
	upRate, upCap := m.portRate[up], m.portCap[up]
	downRate, downCap := m.portRate[down], m.portCap[down]
	upC, downC := m.memo.upC, m.memo.downC[span]
	// Below the memo's top only the ToR-down port is scanned. Unless
	// upFit has just evaluated it, the count found is checked at the
	// NIC-up port once, because the computed bound need not rise with k
	// to the last bit; where it fails, the full scan decides.
	if upMemo {
		k := top
		for k >= 1 && !fits(downRate, downSt, downC[k], downCap) {
			k--
		}
		if k == 0 || (checked && k == top) || fits(upRate, upSt, upC[k], upCap) {
			return k
		}
	}
	for k := limit; k >= 1; k-- {
		if fits(upRate, upSt, upC[k], upCap) && fits(downRate, downSt, downC[k], downCap) {
			return k
		}
	}
	return 0
}

// fits reports whether a port of the given line rate and state keeps
// its queue bound within capacity with c added.
func fits(rate float64, st *portState, c contribution, capacity float64) bool {
	return c.isZero() || queueBoundFast(rate, st, c) <= capacity+1e-12
}

// upFit returns a count k ≤ top such that server s's NIC-up port
// refuses every count in (k, top] of the request's class. It answers
// from the memo entry when the entry covers top, and otherwise
// evaluates the counts above the entry, down from top, and extends it;
// checked reports that it has just seen the port take k. top must be at
// most n/2.
func (m *Manager) upFit(s, top int) (k int, checked bool) {
	caps := m.upCaps.caps[m.memo.upSlot]
	known, fit := int(caps[s]>>8), int(caps[s]&0xff)
	if top <= known {
		return min(fit, top), false
	}
	up := m.tree.ServerUpPortID(s)
	for k := top; k > known; k-- {
		if fits(m.portRate[up], &m.ports[up], m.memo.upC[k], m.portCap[up]) {
			caps[s] = uint16(top)<<8 | uint16(k)
			return k, true
		}
	}
	caps[s] = uint16(top)<<8 | uint16(fit)
	return fit, false
}

// upRefuses reports whether server s's NIC-up port refuses every count
// in [lo, hi] of the request's class, by its memo entry alone, for a
// tenant of n VMs.
func (m *Manager) upRefuses(s, lo, hi, n int) bool {
	if m.memo.upSlot < 0 || 2*hi > n {
		return false
	}
	e := m.upCaps.caps[m.memo.upSlot][s]
	return lo > int(e&0xff) && hi <= int(e>>8)
}

// bindNote is where packWithCaps and layoutValid write down, for the
// rejection journal, the first check of each kind that fails. The
// search passes nil.
type bindNote struct {
	// The first server its ports cap below both its free resources and
	// the fault-domain share (-1: none), and the VM that does not fit.
	server, vm int
	// The first port the layout overbooks (-1: none) and its bound.
	port  int
	bound float64
	// The first server pair over the delay bound and its path delay.
	src, dst int
	delay    float64
}

// packWithCaps fills the servers of racks [rlo, rhi) in order, each up
// to its cap, into sc.srv/sc.cnt. It reports whether all VMs fit on
// enough servers for the fault domains asked for. When the request's
// certificate says no server can host a single VM at this span, the
// search skips the scan, whose every cap would be 0; the journal (note
// != nil) still scans, to name the first server capped.
func (m *Manager) packWithCaps(spec *tenant.Spec, sc *searchScratch, rlo, rhi int, span scopeHeight, note *bindNote) bool {
	sc.srv, sc.cnt = sc.srv[:0], sc.cnt[:0]
	if note == nil && m.memo.emptyMax[span] == 0 {
		return false
	}
	left := spec.VMs
	maxPer := maxPerServer(spec.VMs, spec.FaultDomains)
	for r := rlo; r < rhi && left > 0; r++ {
		if m.ix.freeByRack[r] == 0 {
			continue
		}
		// By the scope symmetry findPlacement states, the servers of an
		// untouched rack all have the cap of its first.
		uniform := m.ix.rackUntouched(r)
		lo, hi := m.tree.ServersOfRack(r)
		k := 0
		for s := lo; s < hi && left > 0; s++ {
			if s == lo || !uniform {
				k = m.maxVMsOnServer(spec, s, span)
				if note != nil && note.server < 0 && k < maxPer && k < min(m.maxVMsByResources(spec, s), spec.VMs) {
					note.server, note.vm = s, k+1
				}
				k = min(k, maxPer)
			}
			if k == 0 {
				if uniform {
					break
				}
				continue
			}
			take := min(k, left)
			sc.srv = append(sc.srv, s)
			sc.cnt = append(sc.cnt, take)
			left -= take
		}
	}
	return left == 0 && len(sc.srv) >= spec.FaultDomains
}

// spreadEven distributes VMs round-robin over the servers of racks
// [rlo, rhi) with free capacity, into sc.srv/sc.cnt: round j hands one
// VM to every server with room for j, in index order, until all are
// out. Only the first spec.VMs servers with room can ever be handed
// one, so the scan stops there.
//
// Most spreads that fail on a filled tree fail at a NIC-up port, which
// layoutValid checks against each server's exact count. Where the
// request's up-cap memo already refuses that count, spreadEven reports
// failure before the layout is built: during the scan for a server that
// refuses every count from one up to its room, since it is handed at
// least one and at most its room, and afterwards for the count each
// server was handed.
func (m *Manager) spreadEven(spec *tenant.Spec, sc *searchScratch, rlo, rhi int) bool {
	sc.srv, sc.cnt, sc.caps = sc.srv[:0], sc.cnt[:0], sc.caps[:0]
	total := 0
scan:
	for r := rlo; r < rhi; r++ {
		if m.ix.freeByRack[r] == 0 {
			continue
		}
		lo, hi := m.tree.ServersOfRack(r)
		for s := lo; s < hi; s++ {
			k := m.maxVMsByResources(spec, s)
			if k == 0 {
				continue
			}
			if m.upRefuses(s, 1, k, spec.VMs) {
				return false
			}
			sc.srv = append(sc.srv, s)
			sc.cnt = append(sc.cnt, 0)
			sc.caps = append(sc.caps, k)
			total += k
			if len(sc.srv) == spec.VMs {
				break scan
			}
		}
	}
	if total < spec.VMs {
		return false
	}
	left := spec.VMs
	for round := 1; left > 0; round++ {
		for i, k := range sc.caps {
			if k >= round && left > 0 {
				sc.cnt[i]++
				left--
			}
		}
	}
	for i, s := range sc.srv {
		if m.upRefuses(s, sc.cnt[i], sc.cnt[i], spec.VMs) {
			return false
		}
	}
	return len(sc.srv) >= spec.FaultDomains
}

// layoutValid runs the full constraint check for the candidate layout
// in sc.srv/sc.cnt: every port the tenant touches must keep queue bound
// <= queue capacity with the tenant's contribution added, and every
// intra-tenant path must satisfy the delay constraint.
func (m *Manager) layoutValid(spec *tenant.Spec, sc *searchScratch, note *bindNote) bool {
	lay := &sc.lay
	lay.build(m.tree, sc.srv, sc.cnt)
	ok := m.forEachContribution(spec, lay, func(pid, _ int, c contribution) bool {
		b := m.portBoundWith(pid, c)
		if b <= m.portCap[pid]+1e-12 {
			return true
		}
		if note != nil {
			note.port, note.bound = pid, b
		}
		return false
	})
	if !ok {
		return false
	}
	// Constraint 2 over actual server pairs.
	if d := spec.Guarantee.DelayBound; d > 0 {
		distinct := lay.servers
		for i := 0; i < len(distinct); i++ {
			for j := i + 1; j < len(distinct); j++ {
				if pd := m.pathDelayMetric(distinct[i], distinct[j]); pd > d+1e-15 {
					if note != nil {
						note.src, note.dst, note.delay = distinct[i], distinct[j], pd
					}
					return false
				}
			}
		}
	}
	return true
}

// portBoundWith returns the port's queue bound with the extra
// contribution added.
func (m *Manager) portBoundWith(pid int, c contribution) float64 {
	return queueBoundFast(m.portRate[pid], &m.ports[pid], c)
}

// pathDelayMetric sums per-port delay terms along a path: queue
// capacities normally, or live queue bounds under the ablation option.
func (m *Manager) pathDelayMetric(src, dst int) float64 {
	if !m.opts.DelayCheckUsesBound {
		return m.tree.PathDelayCapacity(src, dst)
	}
	var buf [6]int
	var sum float64
	for _, pid := range m.tree.AppendPathIDs(buf[:0], src, dst) {
		sum += m.bounds[pid]
	}
	return sum
}

// cutContribution builds the arrival-curve contribution of m tenant
// VMs sending across a cut of an n-VM tenant, with the given ingress
// peak capacity and upstream burst inflation (seconds of queue
// capacity crossed so far).
func (m *Manager) cutContribution(mSide, n int, g tenant.Guarantee, ingressCap, inflation float64) contribution {
	if mSide <= 0 || mSide >= n {
		return contribution{}
	}
	var rate float64
	if m.opts.PlainAggregation {
		rate = float64(mSide) * g.BandwidthBps
	} else {
		other := n - mSide
		lim := mSide
		if other < lim {
			lim = other
		}
		rate = float64(lim) * g.BandwidthBps
	}
	burst := float64(mSide)*g.BurstBytes + rate*inflation
	bmax := g.BurstRateBps
	if bmax <= 0 {
		bmax = g.BandwidthBps
	}
	peak := float64(mSide) * bmax
	if peak > ingressCap {
		peak = ingressCap
	}
	seed := float64(mSide) * m.opts.MTUBytes
	if seed > burst {
		seed = burst
	}
	return contribution{Rate: rate, Burst: burst, Peak: peak, Seed: seed}
}

// inflation returns the worst-case sum of queue capacities a tenant's
// traffic may have crossed before reaching a port at the given level
// and direction, given how far the tenant spans. A rack-local tenant's
// traffic reaches its ToR down ports having crossed only the source
// NIC; a datacenter-spanning tenant's may have crossed the full
// up-and-down chain. Port capacities are uniform per level in the
// tree, so representative ports suffice.
func (m *Manager) inflation(span scopeHeight, level topology.Level, dir topology.Direction) float64 {
	t := m.tree
	nic := t.ServerUpPort(0).QueueCapacity()
	rackUp := t.RackUpPort(0).QueueCapacity()
	podUp := t.PodUpPort(0).QueueCapacity()
	coreDown := t.CoreDownPort(0).QueueCapacity()
	podDown := t.PodDownPort(0).QueueCapacity()
	switch {
	case level == topology.LevelServer && dir == topology.Up:
		return 0
	case level == topology.LevelRack && dir == topology.Up:
		return nic
	case level == topology.LevelPod && dir == topology.Up:
		return nic + rackUp
	case level == topology.LevelCore:
		return nic + rackUp + podUp
	case level == topology.LevelPod && dir == topology.Down:
		if span >= scopeDC {
			return nic + rackUp + podUp + coreDown
		}
		return nic + rackUp
	default: // rack down port
		switch span {
		case scopeRack:
			return nic
		case scopePod:
			return nic + rackUp + podDown
		default:
			return nic + rackUp + podUp + coreDown + podDown
		}
	}
}

// forEachContribution streams the tenant's contribution at every
// directed port its traffic crosses, given its VM layout, together with
// the number of VMs on the sending side of that cut. fn returning
// false stops the walk early (layoutValid bails at the first violated
// port); the return value reports whether the walk ran to completion.
// Port rates and queue capacities are uniform within each level of the
// tree, so ingress capacities use representative ports.
func (m *Manager) forEachContribution(spec *tenant.Spec, lay *layout, fn func(pid, cut int, c contribution) bool) bool {
	g := spec.Guarantee
	n := lay.total
	t := m.tree
	link := t.Config().LinkBps
	span := lay.span()

	// Server NIC up ports and ToR down ports.
	downInfl := m.inflation(span, topology.LevelRack, topology.Down)
	podDownRate := t.PodDownPort(0).RateBps
	for i, s := range lay.servers {
		k := lay.serverCnt[i]
		ri := lay.serverRack[i]
		// Up: k local VMs send to n−k remote ones; traffic enters the
		// NIC from the local pacer, physically capped at line rate.
		if c := m.cutContribution(k, n, g, link, 0); !c.isZero() {
			if !fn(t.ServerUpPortID(s), k, c) {
				return false
			}
		}
		// Down: n−k remote VMs send toward s. Ingress to the ToR is
		// capped by the links feeding it that carry tenant traffic:
		// other in-rack servers' NICs plus the rack's downlink if the
		// tenant extends beyond the rack.
		ingress := float64(lay.rackSrv[ri]-1) * link
		if lay.rackCnt[ri] < n {
			ingress += podDownRate
		}
		if c := m.cutContribution(n-k, n, g, ingress, downInfl); !c.isZero() {
			if !fn(t.RackDownPortID(s), n-k, c) {
				return false
			}
		}
	}

	// Rack up and pod down ports, only if the tenant spans racks.
	if len(lay.racks) > 1 {
		rackUpInfl := m.inflation(span, topology.LevelRack, topology.Up)
		podDownInfl := m.inflation(span, topology.LevelPod, topology.Down)
		rackUpRate := t.RackUpPort(0).RateBps
		coreDownRate := t.CoreDownPort(0).RateBps
		for ri, r := range lay.racks {
			k := lay.rackCnt[ri]
			if k == n {
				continue // nothing crosses the rack boundary
			}
			// Up: k VMs in rack send out; ingress = servers in rack
			// with VMs.
			ingressUp := float64(lay.rackSrv[ri]) * link
			if c := m.cutContribution(k, n, g, ingressUp, rackUpInfl); !c.isZero() {
				if !fn(t.RackUpPortID(r), k, c) {
					return false
				}
			}
			// Down into rack r: from other racks in pod + core
			// downlink if the tenant spans pods.
			pi := lay.rackPod[ri]
			ingressDown := float64(lay.podRacks[pi]-1) * rackUpRate
			if lay.podCnt[pi] < n {
				ingressDown += coreDownRate
			}
			if c := m.cutContribution(n-k, n, g, ingressDown, podDownInfl); !c.isZero() {
				if !fn(t.PodDownPortID(r), n-k, c) {
					return false
				}
			}
		}
	}

	// Pod up and core down ports, only if the tenant spans pods.
	if len(lay.pods) > 1 {
		podUpInfl := m.inflation(span, topology.LevelPod, topology.Up)
		coreInfl := m.inflation(span, topology.LevelCore, topology.Down)
		rackUpRate := t.RackUpPort(0).RateBps
		podUpRate := t.PodUpPort(0).RateBps
		for pi, p := range lay.pods {
			k := lay.podCnt[pi]
			if k == n {
				continue
			}
			ingressUp := float64(lay.podRacks[pi]) * rackUpRate
			if c := m.cutContribution(k, n, g, ingressUp, podUpInfl); !c.isZero() {
				if !fn(t.PodUpPortID(p), k, c) {
					return false
				}
			}
			ingressDown := float64(len(lay.pods)-1) * podUpRate
			if c := m.cutContribution(n-k, n, g, ingressDown, coreInfl); !c.isZero() {
				if !fn(t.CoreDownPortID(p), n-k, c) {
					return false
				}
			}
		}
	}
	return true
}

// contributions materializes the per-port contribution map for a
// placement (used when committing and when auditing, not in the search
// hot path).
func (m *Manager) contributions(spec *tenant.Spec, servers []int) map[int]contribution {
	out := make(map[int]contribution)
	lay := newLayout(m.tree, servers)
	m.forEachContribution(spec, &lay, func(pid, _ int, c contribution) bool {
		out[pid] = c
		return true
	})
	return out
}

// faultDomainsOK reports whether the per-VM server list names at least
// domains distinct servers. It stops at the domains-th one, and tells
// servers apart by scanning the few found so far.
func faultDomainsOK(servers []int, domains int) bool {
	if domains <= 1 {
		return true
	}
	var buf [8]int
	distinct := buf[:0]
next:
	for _, s := range servers {
		for _, d := range distinct {
			if d == s {
				continue next
			}
		}
		if distinct = append(distinct, s); len(distinct) >= domains {
			return true
		}
	}
	return false
}

// VerifyInvariants exhaustively rechecks constraint 1 at every port by
// recomputing contributions of all admitted tenants from scratch; it
// returns an error naming the first violating port, and also
// cross-checks the incrementally maintained queue-bound cache against
// a fresh computation and re-derives every up-cap memo entry. Intended
// for tests and post-hoc validation, not the hot path.
func (m *Manager) VerifyInvariants() error {
	fresh := make([]portState, m.tree.NumPorts())
	for _, at := range m.admitted {
		if at.placement.Spec.Class == tenant.ClassBestEffort {
			// Best-effort tenants bypass network admission and
			// contribute no arrival curves (paper §4.4).
			continue
		}
		for pid, c := range m.contributions(&at.placement.Spec, at.placement.Servers) {
			fresh[pid].add(c)
		}
	}
	var ar netcal.Arena
	for pid := range fresh {
		port := m.tree.Port(pid)
		got := m.ports[pid]
		want := fresh[pid]
		if math.Abs(got.Rate-want.Rate) > 1e-6 || math.Abs(got.Burst-want.Burst) > 1e-3 ||
			math.Abs(got.Peak-want.Peak) > 1e-3 || math.Abs(got.Seed-want.Seed) > 1e-3 ||
			got.tenants != want.tenants {
			return fmt.Errorf("port %d state drift: have %+v want %+v", pid, got, want)
		}
		if want.tenants > 0 {
			// The reserved bandwidth first: where the summed peak is below
			// the summed rate the curve is the peak line alone and no
			// longer shows the rate.
			if want.Rate > port.RateBps {
				return fmt.Errorf("port %d violates constraint 1: admitted rate %v > line rate %v", pid, want.Rate, port.RateBps)
			}
			ar.Reset()
			b := netcal.QueueBound(want.contribution.curveIn(&ar), netcal.NewRateLatency(port.RateBps, 0))
			if b > port.QueueCapacity()+1e-9 {
				return fmt.Errorf("port %d violates constraint 1: bound %v > capacity %v", pid, b, port.QueueCapacity())
			}
		}
		if live := queueBoundFast(m.portRate[pid], &got, contribution{}); math.Abs(m.bounds[pid]-live) > 1e-9 {
			return fmt.Errorf("port %d bound-cache drift: cached %v live %v", pid, m.bounds[pid], live)
		}
	}
	return m.verifyUpCaps()
}

// verifyUpCaps re-derives every up-cap memo entry from its server's
// NIC-up port as it stands: the port must refuse every count in
// (fit, known] of the entry's class and take fit.
func (m *Manager) verifyUpCaps() error {
	link := m.tree.Config().LinkBps
	for i, caps := range m.upCaps.caps {
		g := m.upCaps.class[i]
		for s, e := range caps {
			known, fit := int(e>>8), int(e&0xff)
			up := m.tree.ServerUpPortID(s)
			for k := max(fit, 1); k <= known; k++ {
				c := m.cutContribution(k, 2*known, g, link, 0)
				if fits(m.portRate[up], &m.ports[up], c, m.portCap[up]) != (k == fit) {
					return fmt.Errorf("server %d up-cap entry (fit %d of %d) for %+v is wrong at %d VMs", s, fit, known, g, k)
				}
			}
		}
	}
	return nil
}
