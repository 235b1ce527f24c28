package placement

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/netcal"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// ErrRejected reports that admission control found no valid placement
// for a tenant request.
var ErrRejected = errors.New("placement: request rejected")

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

	// ports holds, per directed port, the incrementally maintained
	// aggregate arrival-curve state (scalar rate/burst/peak/seed sums)
	// and the cached queue bound, refreshed on every Place/Remove that
	// touches the port (closed form, O(1) per port). Place adds a
	// tenant's contributions, Remove subtracts them, and admission never
	// resums the admitted set. It is paged: only ports that have carried
	// a tenant cost memory.
	ports portTable

	// upLo/upHi is the port-ID range of the NIC-up family, for mapping a
	// touched port back to its server.
	upLo, upHi int

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

	// journal is the optional admission decision log (EnableJournal),
	// each tenant's latest decision by ID, kept for explainability. Nil
	// costs one branch on each accept/reject tail; recording happens
	// only there, never inside the scope search.
	journal map[int]*Decision

	// hook is the optional write-ahead commit hook (SetCommitHook):
	// called with every mutation before it is applied; an error aborts
	// the mutation.
	hook func(*Mutation) error
}

type admittedTenant struct {
	placement *tenant.Placement
	// contribs is this tenant's contribution at each port it crosses, in
	// forEachContribution order, retained so Remove can subtract exactly
	// what Place added. Nil for a best-effort tenant.
	contribs []portContribution
}

// portContribution is a tenant's contribution at one directed port. A
// tenant makes at most one per port.
type portContribution struct {
	pid int
	contribution
}

// crosses reports whether the tenant's traffic crosses port pid.
func (at *admittedTenant) crosses(pid int) bool {
	for _, pc := range at.contribs {
		if pc.pid == pid {
			return true
		}
	}
	return false
}

// NewManager returns a Silo placement manager over the given
// datacenter.
func NewManager(tree *topology.Tree, opts Options) *Manager {
	m := &Manager{
		tree:     tree,
		opts:     opts,
		ix:       newSlotIndex(tree),
		ports:    newPortTable(tree.NumPorts()),
		admitted: make(map[int]*admittedTenant),
	}
	m.memo.upSlot = -1
	m.upLo, m.upHi = tree.ServerUpPortRange()
	return m
}

// Name implements Algorithm.
func (m *Manager) Name() string { return "silo" }

// Accepted and Rejected report cumulative admission counters.
func (m *Manager) Accepted() int { return m.acceptedCount }

// Rejected reports the number of rejected requests.
func (m *Manager) Rejected() int { return m.rejectedCount }

// FreeSlots reports the number of free VM slots on server s.
func (m *Manager) FreeSlots(s int) int { return m.ix.slots(s) }

// QueueBound reports the current worst-case queuing delay (seconds) at
// the given directed port.
func (m *Manager) QueueBound(portID int) float64 { return m.ports.bound(portID) }

// Placement returns the admitted placement for a tenant ID, if any.
func (m *Manager) Placement(id int) (*tenant.Placement, bool) {
	at, ok := m.admitted[id]
	if !ok {
		return nil, false
	}
	return at.placement, true
}

// portTouched refreshes the per-port derived caches after the port's
// aggregate state changed: the cached queue bound and, for a NIC-up
// port, its server's up-cap entries.
func (m *Manager) portTouched(pid int) {
	st, bound := m.ports.at(pid)
	rate, _ := m.tree.Line(pid)
	*bound = queueBoundFast(rate, st.contribution, contribution{})
	if pid >= m.upLo && pid < m.upHi {
		m.upCaps.forget(pid - m.upLo)
	}
}

// Place implements Algorithm: admission control and placement. A
// best-effort tenant only needs slots (paper §4.4: it rides the low
// priority class), so a greedy pack decides it. Any other proceeds scope by scope — single
// server, then each rack, each pod, then the whole datacenter — and
// within a scope first packs greedily and then, if the packed layout
// violates a queuing constraint, retries with an even spread (paper
// Figure 5: 3/3/3 beats 4/4/1).
func (m *Manager) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.admitted[spec.ID]; dup {
		return nil, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	// The search counters exist only for the journal.
	var (
		stats   searchStats
		st      *searchStats
		servers []int
	)
	if m.journal != nil {
		st = &stats
	}
	if spec.Class == tenant.ClassBestEffort {
		servers = packGreedy(m.tree, m.ix, spec.VMs, spec.FaultDomains)
	} else {
		servers = m.findPlacement(&spec, st)
	}
	return m.settle(&spec, servers, st)
}

// settle commits admission's decision — a placement on servers, or a
// rejection when servers is nil — as one MutPlace or MutReject. The
// journal entry is written between the log and the apply, so it sees
// the pre-admission port state (BoundBeforeSec).
func (m *Manager) settle(spec *tenant.Spec, servers []int, st *searchStats) (*tenant.Placement, error) {
	mut := Mutation{Op: MutReject, TenantID: spec.ID}
	if servers != nil {
		mut = Mutation{Op: MutPlace, Spec: *spec, Servers: servers}
	}
	if err := m.logMutation(&mut); err != nil {
		return nil, err
	}
	if m.journal != nil {
		var d *Decision
		if servers != nil {
			d = m.recordAccept(spec, servers)
		} else {
			d = m.explainReject(spec)
		}
		m.journal[spec.ID] = d.withSearch(st)
	}
	if pl := m.apply(&mut); pl != nil {
		return pl, nil
	}
	if spec.Class == tenant.ClassBestEffort {
		return nil, fmt.Errorf("%w: best-effort tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	return nil, fmt.Errorf("%w: tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
}

// Remove implements Algorithm.
func (m *Manager) Remove(id int) error {
	if _, ok := m.admitted[id]; !ok {
		return fmt.Errorf("placement: unknown tenant: id %d", id)
	}
	if err := m.commit(&Mutation{Op: MutRemove, TenantID: id}); err != nil {
		return err
	}
	return nil
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
	upRate, upCap := m.tree.Line(m.upLo)
	downRate, downCap := m.tree.Line(m.tree.RackDownPortID(0))
	upCap, downCap = upCap+1e-12, downCap+1e-12
	for span := scopeRack; span <= scopeDC; span++ {
		infl := m.inflation(span, topology.LevelRack, topology.Down)
		downC, kMax := memo.downC[span][:0], 0
		for k := 0; k <= maxK; k++ {
			c := m.cutContribution(n-k, n, g, math.Inf(1), infl)
			downC = append(downC, c)
			// A zero contribution bounds to 0.
			upB := queueBoundFast(upRate, contribution{}, memo.upC[k])
			downB := queueBoundFast(downRate, contribution{}, c)
			if upB <= upCap*(1+monoSlack) && downB <= downCap*(1+monoSlack) {
				kMax = k
			}
		}
		memo.downC[span], memo.emptyMax[span] = downC, kMax
	}
}

// searchScratch holds the search's candidate layout: the distinct
// servers it would use, ascending, the VM count on each, and the
// per-rack and per-pod roll-up. tryScope refills it for every
// candidate; nothing in it outlives the request. Once the search has
// returned, the commit paths reuse it to lay out the chosen servers
// (contributions).
type searchScratch struct {
	srv, cnt []int
	caps     []int // spreadEven: capacity of srv[i]
	vms      []int // layoutOf: a sorted copy of an unsorted server list
	lay      layout
	contribs []portContribution // contributions: the walk, before its copy
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
	// Constraint 2 pre-check per scope height: the worst path inside a
	// scope has a fixed queue-capacity sum; scopes whose sum exceeds d
	// cannot host the tenant (unless it fits a single server, where no
	// network port is crossed).
	delayBudget := spec.Guarantee.DelayBound
	if delayBudget <= 0 {
		delayBudget = math.Inf(1)
	}

	// Scope 0: single server (no network traffic, no constraints
	// beyond slots and fault domains).
	if spec.FaultDomains <= 1 {
		if s := m.ix.serverWith(spec.VMs); s >= 0 {
			return repeatServer(s, spec.VMs)
		}
	}

	m.fillReqMemo(spec)

	// Scopes 1 and 2: single rack, then single pod.
	for span := scopeRack; span <= scopePod; span++ {
		if !m.scopeDelayOK(delayBudget, span) {
			continue
		}
		cands, collapsed := m.candidates(spec, span)
		racksPer := 1
		if span == scopePod {
			racksPer = m.tree.Config().RacksPerPod
		}
		// First fit: the lowest-index candidate that hosts the tenant.
		tried, servers := len(cands), []int(nil)
		for j, i := range cands {
			if servers = m.tryScope(spec, &m.scratch, i*racksPer, (i+1)*racksPer, span); servers != nil {
				tried = j + 1
				break
			}
		}
		if st != nil {
			st.evaluated[span], st.collapsed[span] = tried, collapsed
		}
		if servers != nil {
			return servers
		}
	}
	// Scope 3: whole datacenter.
	if m.scopeDelayOK(delayBudget, scopeDC) && m.ix.totalFree >= spec.VMs {
		if st != nil {
			st.evaluated[scopeDC] = 1
		}
		return m.tryScope(spec, &m.scratch, 0, m.tree.Racks(), scopeDC)
	}
	return nil
}

// candidates fills m.cands with the scopes of height span (rack or pod)
// that have the slots to host the tenant, minus all untouched ones but
// the first, in index order, and returns them with the number of
// untouched ones left out.
//
// Scope symmetry: a rack or pod whose free-slot sum equals its capacity
// hosts no VM and has no failed server, so every port inside it is
// exactly empty (portState.remove clamps to zero with its last tenant).
// tryScope reads nothing else, so on two untouched scopes of one height
// it returns translations of one answer: if the first fails all fail,
// and if it succeeds it is the lowest-index success among them. The
// slot test too passes or fails every untouched scope alike. So the walk
// visits the touched scopes, from the slot index's bitset, and merges
// in the lowest untouched one. First-fit order, and so every decision,
// is unchanged. The test oracle evaluates them all.
func (m *Manager) candidates(spec *tenant.Spec, span scopeHeight) (cands []int, collapsed int) {
	free, full, touched, n := m.ix.freeByRack, m.ix.rackSlots, m.ix.touchedRacks, m.tree.Racks()
	if span == scopePod {
		free, full, touched, n = m.ix.freeByPod, m.ix.podSlots, m.ix.touchedPods, m.tree.Pods()
	}
	vms := spec.VMs
	// u is the lowest untouched scope while it is still to be merged in.
	u := touched.firstClear(n)
	if u < n && full >= vms {
		collapsed = n - touched.count() - 1
	} else {
		u = n
	}
	cands = m.cands[:0]
	for i := touched.next(0, n); i < n; i = touched.next(i+1, n) {
		if u < i {
			cands, u = append(cands, u), n
		}
		if free[i] >= vms {
			cands = append(cands, i)
		}
	}
	if u < n {
		cands = append(cands, u)
	}
	m.cands = cands
	return cands, collapsed
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
	limit := min(m.ix.slots(s), spec.VMs, m.memo.emptyMax[span])
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
	up, down := m.tree.ServerUpPortID(s), m.tree.RackDownPortID(s)
	var empty portState
	upSt, downSt := m.ports.ref(up, &empty), m.ports.ref(down, &empty)
	upRate, upCap := m.tree.Line(up)
	downRate, downCap := m.tree.Line(down)
	upC, downC := m.memo.upC, m.memo.downC[span]
	// Below the memo's top only the ToR-down port is scanned. Unless
	// upFit has just evaluated it, the count found is checked at the
	// NIC-up port once, because the computed bound need not rise with k
	// to the last bit; where it fails, the full scan decides.
	if upMemo {
		k := top
		for k >= 1 && !fits(downRate, downSt.contribution, downC[k], downCap) {
			k--
		}
		if k == 0 || (checked && k == top) || fits(upRate, upSt.contribution, upC[k], upCap) {
			return k
		}
	}
	for k := limit; k >= 1; k-- {
		if fits(upRate, upSt.contribution, upC[k], upCap) && fits(downRate, downSt.contribution, downC[k], downCap) {
			return k
		}
	}
	return 0
}

// fits reports whether a port of the given line rate and state keeps
// its queue bound within capacity with c added.
func fits(rate float64, load, c contribution, capacity float64) bool {
	return c.isZero() || queueBoundFast(rate, load, c) <= capacity+1e-12
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
	st := m.ports.state(up)
	rate, capacity := m.tree.Line(up)
	for k := top; k > known; k-- {
		if fits(rate, st.contribution, m.memo.upC[k], capacity) {
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
	// The first server its ports cap below both its free slots and
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
				if note != nil && note.server < 0 && k < maxPer && k < min(m.ix.slots(s), spec.VMs) {
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
			k := m.ix.slots(s)
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
		b, capacity := m.portBoundWith(pid, c)
		if b <= capacity+1e-12 {
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

// portBoundWith returns port pid's queue bound with the extra
// contribution added, and the port's queue capacity.
func (m *Manager) portBoundWith(pid int, c contribution) (bound, capacity float64) {
	rate, capacity := m.tree.Line(pid)
	return queueBoundFast(rate, m.ports.state(pid).contribution, c), capacity
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
		sum += m.QueueBound(pid)
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
	seed := float64(mSide) * units.MTUBytes
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

// contributions returns a placement's per-port contributions in
// forEachContribution order, for the commit, replay and audit paths
// (not the search). The layout and the walk run in the manager's
// scratch, so the returned slice is the one allocation.
func (m *Manager) contributions(spec *tenant.Spec, servers []int) []portContribution {
	sc := &m.scratch
	out := sc.contribs[:0]
	m.forEachContribution(spec, sc.layoutOf(m.tree, servers), func(pid, _ int, c contribution) bool {
		out = append(out, portContribution{pid, c})
		return true
	})
	sc.contribs = out
	return slices.Clone(out)
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
//
// The recomputation is paged like the live state, and only pages
// allocated in either are compared: a port on any other page is empty in
// both, which satisfies every check.
func (m *Manager) VerifyInvariants() error {
	n := m.tree.NumPorts()
	fresh := newPortTable(n)
	for _, at := range m.admitted {
		if at.placement.Spec.Class == tenant.ClassBestEffort {
			// Best-effort tenants bypass network admission and
			// contribute no arrival curves (paper §4.4).
			continue
		}
		for _, pc := range m.contributions(&at.placement.Spec, at.placement.Servers) {
			st, _ := fresh.at(pc.pid)
			st.add(pc.contribution)
		}
	}
	var ar netcal.Arena
	for pg := range fresh.pages {
		if m.ports.pages[pg] == nil && fresh.pages[pg] == nil {
			continue
		}
		for pid := pg << portPageBits; pid < min((pg+1)<<portPageBits, n); pid++ {
			port := m.tree.Port(pid)
			got, want := m.ports.state(pid), fresh.state(pid)
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
			if live, cached := queueBoundFast(port.RateBps, got.contribution, contribution{}), m.ports.bound(pid); math.Abs(cached-live) > 1e-9 {
				return fmt.Errorf("port %d bound-cache drift: cached %v live %v", pid, cached, live)
			}
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
			st := m.ports.state(up)
			rate, capacity := m.tree.Line(up)
			for k := max(fit, 1); k <= known; k++ {
				c := m.cutContribution(k, 2*known, g, link, 0)
				if fits(rate, st.contribution, c, capacity) != (k == fit) {
					return fmt.Errorf("server %d up-cap entry (fit %d of %d) for %+v is wrong at %d VMs", s, fit, known, g, k)
				}
			}
		}
	}
	return nil
}
