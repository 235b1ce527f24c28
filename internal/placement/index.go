package placement

import (
	"repro/internal/topology"
)

// slotIndex tracks free VM slots per server together with per-rack,
// per-pod and datacenter-wide sums, so scope searches can dismiss a
// full rack, pod or the whole tree in O(1) instead of rescanning its
// servers. It is shared by the Silo manager and the baseline placers.
type slotIndex struct {
	tree       *topology.Tree
	freeSlots  []int
	freeByRack []int
	freeByPod  []int
	totalFree  int
	// rackSlots and podSlots are the slot capacities of one rack and one
	// pod: a scope whose free sum equals its capacity is untouched.
	rackSlots, podSlots int
	// disabled marks failed servers: their free slots are hidden from
	// every sum so all search paths avoid them with no extra checks
	// (a disabled server simply reports zero free slots). hidden holds
	// the slot count to restore on enable; frees that land on a
	// disabled server (a tenant removed mid-outage) accrue there too.
	// Both are nil until the first failure — the no-fault hot path
	// pays one nil check in free().
	disabled []bool
	hidden   []int
}

func newSlotIndex(tree *topology.Tree) *slotIndex {
	cfg := tree.Config()
	ix := &slotIndex{
		tree:       tree,
		freeSlots:  make([]int, tree.Servers()),
		freeByRack: make([]int, tree.Racks()),
		freeByPod:  make([]int, tree.Pods()),
		rackSlots:  cfg.SlotsPerServer * cfg.ServersPerRack,
		podSlots:   cfg.SlotsPerServer * cfg.ServersPerRack * cfg.RacksPerPod,
	}
	for s := range ix.freeSlots {
		ix.freeSlots[s] = cfg.SlotsPerServer
	}
	for r := range ix.freeByRack {
		ix.freeByRack[r] = ix.rackSlots
	}
	for p := range ix.freeByPod {
		ix.freeByPod[p] = ix.podSlots
	}
	ix.totalFree = cfg.SlotsPerServer * tree.Servers()
	return ix
}

// rackUntouched reports that rack r hosts no VM and has no failed
// server: every slot it was built with is free. A failed server's slots
// are hidden from freeByRack (and stay hidden while it is down, even
// after its tenants leave), so a rack with one is never untouched.
func (ix *slotIndex) rackUntouched(r int) bool { return ix.freeByRack[r] == ix.rackSlots }

// take consumes one slot on server s, keeping the sums consistent.
func (ix *slotIndex) take(s int) {
	ix.freeSlots[s]--
	ix.freeByRack[ix.tree.RackOfServer(s)]--
	ix.freeByPod[ix.tree.PodOfServer(s)]--
	ix.totalFree--
}

// free releases one slot on server s. A slot freed on a failed server
// is parked in hidden and surfaces when the server is re-enabled.
func (ix *slotIndex) free(s int) {
	if ix.disabled != nil && ix.disabled[s] {
		ix.hidden[s]++
		return
	}
	ix.freeSlots[s]++
	ix.freeByRack[ix.tree.RackOfServer(s)]++
	ix.freeByPod[ix.tree.PodOfServer(s)]++
	ix.totalFree++
}

// disable hides server s's free slots from every sum, so admission and
// recovery never land VMs there. Idempotent.
func (ix *slotIndex) disable(s int) {
	if ix.disabled == nil {
		ix.disabled = make([]bool, len(ix.freeSlots))
		ix.hidden = make([]int, len(ix.freeSlots))
	}
	if ix.disabled[s] {
		return
	}
	ix.disabled[s] = true
	n := ix.freeSlots[s]
	ix.hidden[s] = n
	ix.freeSlots[s] = 0
	ix.freeByRack[ix.tree.RackOfServer(s)] -= n
	ix.freeByPod[ix.tree.PodOfServer(s)] -= n
	ix.totalFree -= n
}

// enable restores a disabled server's hidden slots. Idempotent.
func (ix *slotIndex) enable(s int) {
	if ix.disabled == nil || !ix.disabled[s] {
		return
	}
	ix.disabled[s] = false
	n := ix.hidden[s]
	ix.hidden[s] = 0
	ix.freeSlots[s] = n
	ix.freeByRack[ix.tree.RackOfServer(s)] += n
	ix.freeByPod[ix.tree.PodOfServer(s)] += n
	ix.totalFree += n
}

// isDisabled reports whether server s is failed.
func (ix *slotIndex) isDisabled(s int) bool {
	return ix.disabled != nil && ix.disabled[s]
}

// headroomSlack pads the port-headroom skip test so that float rounding
// in "aggregate rate + contribution <= line rate" can never disagree
// with the admission check proper: a scope is skipped only when it
// misses by more than the slack (1 byte/sec — many orders of magnitude
// above rounding error at datacenter rates, and equally far below any
// meaningful guarantee).
const headroomSlack = 1.0

// headroomIndex summarizes, per rack and per pod, the largest rate
// headroom (line rate minus admitted aggregate arrival rate, taking
// the tighter of a server's NIC-up and ToR-down port) any server in
// the scope still offers. Every server hosting at least one VM of an
// n>=2-VM tenant contributes at least its per-VM bandwidth B of
// arrival rate at both ports, so a scope whose best server offers less
// than B (minus slack) cannot host any placement of the tenant and is
// skipped without evaluation. Racks are revalidated lazily: Place and
// Remove mark the racks whose NIC/ToR port states changed, and the
// next admission refreshes only those.
type headroomIndex struct {
	rackMax   []float64
	podMax    []float64
	dcMax     float64
	rackDirty []bool
	anyDirty  bool
}

func newHeadroomIndex(tree *topology.Tree) *headroomIndex {
	h := &headroomIndex{
		rackMax:   make([]float64, tree.Racks()),
		podMax:    make([]float64, tree.Pods()),
		rackDirty: make([]bool, tree.Racks()),
		anyDirty:  true,
	}
	for r := range h.rackDirty {
		h.rackDirty[r] = true
	}
	return h
}

// markRack flags rack r (and transitively its pod and the datacenter
// summary) for recomputation.
func (h *headroomIndex) markRack(r int) {
	h.rackDirty[r] = true
	h.anyDirty = true
}

// refresh recomputes the summaries for dirty racks and their
// enclosing pods. Must not run concurrently with readers.
func (h *headroomIndex) refresh(m *Manager) {
	if !h.anyDirty {
		return
	}
	t := m.tree
	dirtyPods := make(map[int]bool)
	for r := range h.rackDirty {
		if !h.rackDirty[r] {
			continue
		}
		h.rackDirty[r] = false
		lo, hi := t.ServersOfRack(r)
		best := 0.0
		for s := lo; s < hi; s++ {
			if f := m.serverRateHeadroom(s); f > best {
				best = f
			}
		}
		h.rackMax[r] = best
		dirtyPods[t.PodOfRack(r)] = true
	}
	for p := range dirtyPods {
		rlo, rhi := t.RacksOfPod(p)
		best := 0.0
		for r := rlo; r < rhi; r++ {
			if f := h.rackMax[r]; f > best {
				best = f
			}
		}
		h.podMax[p] = best
	}
	best := 0.0
	for _, f := range h.podMax {
		if f > best {
			best = f
		}
	}
	h.dcMax = best
	h.anyDirty = false
}

// serverRateHeadroom returns the rate a new tenant could still push
// through server s's NIC-up and ToR-down ports before either exceeds
// its line rate (at which point the queue bound is +Inf and admission
// necessarily fails).
func (m *Manager) serverRateHeadroom(s int) float64 {
	up := m.tree.ServerUpPortID(s)
	down := m.tree.RackDownPortID(s)
	h := m.portRate[up] - m.ports[up].Rate
	if d := m.portRate[down] - m.ports[down].Rate; d < h {
		h = d
	}
	return h
}
