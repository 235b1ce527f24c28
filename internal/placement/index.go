package placement

import (
	"math/bits"

	"repro/internal/tenant"
	"repro/internal/topology"
)

// slotIndex tracks free VM slots per server together with per-rack,
// per-pod and datacenter-wide sums, so scope searches can dismiss a
// full rack, pod or the whole tree in O(1) instead of rescanning its
// servers, and a touched bit per rack and pod, so they visit only the
// scopes that hold VMs or a failed server (plus one untouched scope).
// It is shared by the Silo manager and the baseline placers.
type slotIndex struct {
	tree *topology.Tree
	// perServer is a server's slot count. taken counts, per server, the
	// slots its VMs hold or its failure hides; it is nil until the first
	// take or disable, so building an index costs nothing per server.
	perServer  int
	taken      []int
	freeByRack []int
	freeByPod  []int
	totalFree  int
	// rackSlots and podSlots are the slot capacities of one rack and one
	// pod: a scope whose free sum equals its capacity is untouched.
	// touchedRacks and touchedPods hold a set bit for every scope that is
	// not.
	rackSlots, podSlots       int
	touchedRacks, touchedPods bitset
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
		tree:         tree,
		perServer:    cfg.SlotsPerServer,
		freeByRack:   make([]int, tree.Racks()),
		freeByPod:    make([]int, tree.Pods()),
		totalFree:    cfg.SlotsPerServer * tree.Servers(),
		rackSlots:    cfg.SlotsPerServer * cfg.ServersPerRack,
		podSlots:     cfg.SlotsPerServer * cfg.ServersPerRack * cfg.RacksPerPod,
		touchedRacks: newBitset(tree.Racks()),
		touchedPods:  newBitset(tree.Pods()),
	}
	for r := range ix.freeByRack {
		ix.freeByRack[r] = ix.rackSlots
	}
	for p := range ix.freeByPod {
		ix.freeByPod[p] = ix.podSlots
	}
	return ix
}

// slots reports the free slots of server s (0 while it is failed).
func (ix *slotIndex) slots(s int) int {
	if ix.taken == nil {
		return ix.perServer
	}
	return ix.perServer - ix.taken[s]
}

// counts returns the per-server taken counts, allocating them on the
// first write.
func (ix *slotIndex) counts() []int {
	if ix.taken == nil {
		ix.taken = make([]int, ix.tree.Servers())
	}
	return ix.taken
}

// rackUntouched reports that rack r hosts no VM and has no failed
// server: every slot it was built with is free. A failed server's slots
// are hidden from freeByRack (and stay hidden while it is down, even
// after its tenants leave), so a rack with one is never untouched.
func (ix *slotIndex) rackUntouched(r int) bool { return ix.freeByRack[r] == ix.rackSlots }

// addFree adds d free slots to server s's rack, pod and datacenter sums
// and updates the touched bits of its rack and pod.
func (ix *slotIndex) addFree(s, d int) {
	r, p := ix.tree.RackOfServer(s), ix.tree.PodOfServer(s)
	ix.freeByRack[r] += d
	ix.touchedRacks.put(r, ix.freeByRack[r] != ix.rackSlots)
	ix.freeByPod[p] += d
	ix.touchedPods.put(p, ix.freeByPod[p] != ix.podSlots)
	ix.totalFree += d
}

// take consumes one slot on server s, keeping the sums consistent.
func (ix *slotIndex) take(s int) {
	ix.counts()[s]++
	ix.addFree(s, -1)
}

// free releases one slot on server s. A slot freed on a failed server
// is parked in hidden and surfaces when the server is re-enabled.
func (ix *slotIndex) free(s int) {
	if ix.disabled != nil && ix.disabled[s] {
		ix.hidden[s]++
		return
	}
	ix.taken[s]--
	ix.addFree(s, 1)
}

// disable hides server s's free slots from every sum, so admission and
// recovery never land VMs there. Idempotent.
func (ix *slotIndex) disable(s int) {
	if ix.disabled == nil {
		ix.disabled = make([]bool, ix.tree.Servers())
		ix.hidden = make([]int, ix.tree.Servers())
	}
	if ix.disabled[s] {
		return
	}
	ix.disabled[s] = true
	n := ix.slots(s)
	ix.hidden[s] = n
	ix.counts()[s] = ix.perServer
	ix.addFree(s, -n)
}

// enable restores a disabled server's hidden slots. Idempotent.
func (ix *slotIndex) enable(s int) {
	if ix.disabled == nil || !ix.disabled[s] {
		return
	}
	ix.disabled[s] = false
	n := ix.hidden[s]
	ix.hidden[s] = 0
	ix.taken[s] = ix.perServer - n
	ix.addFree(s, n)
}

// isDisabled reports whether server s is failed.
func (ix *slotIndex) isDisabled(s int) bool {
	return ix.disabled != nil && ix.disabled[s]
}

// serverWith returns the lowest server with at least n free slots, or
// -1. Only a touched rack can hold a server short of a slot, and the
// first server of the lowest untouched rack has them all, so the walk
// visits the touched racks below that one.
func (ix *slotIndex) serverWith(n int) int {
	if n > ix.perServer {
		return -1
	}
	racks := ix.tree.Racks()
	u := ix.touchedRacks.firstClear(racks)
	for r := ix.touchedRacks.next(0, u); r < u; r = ix.touchedRacks.next(r+1, u) {
		if ix.freeByRack[r] < n {
			continue
		}
		lo, hi := ix.tree.ServersOfRack(r)
		for s := lo; s < hi; s++ {
			if ix.slots(s) >= n {
				return s
			}
		}
	}
	if u == racks {
		return -1
	}
	lo, _ := ix.tree.ServersOfRack(u)
	return lo
}

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// put sets bit i to on.
func (b bitset) put(i int, on bool) {
	if on {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
}

// next returns the lowest set bit in [i, n), or n.
func (b bitset) next(i, n int) int {
	for w := i >> 6; w < len(b) && w<<6 < n; w++ {
		word := b[w]
		if w == i>>6 {
			word &= ^uint64(0) << (i & 63)
		}
		if word != 0 {
			return min(w<<6+bits.TrailingZeros64(word), n)
		}
	}
	return n
}

// firstClear returns the lowest clear bit below n, or n.
func (b bitset) firstClear(n int) int {
	for w, word := range b {
		if word != ^uint64(0) {
			return min(w<<6+bits.TrailingZeros64(^word), n)
		}
	}
	return n
}

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, word := range b {
		c += bits.OnesCount64(word)
	}
	return c
}

// upCapSlots is how many guarantee classes the up-cap memo holds at
// once. A request of a further class takes the slots over in turn.
const upCapSlots = 4

// upCapMemo remembers, per server and guarantee class, how many of a
// tenant's VMs the server's NIC-up port takes. Up to half the tenant,
// the cut k VMs put on their server's NIC-up port, cutContribution(k,
// n, g, link, 0), is (k·B, k·S, min(k·Bmax, link), min(k·MTU, k·S)) bit
// for bit whatever n is, so whether the port takes k depends only on
// its state and the class's (B, S, Bmax). An entry is known<<8 | fit:
// the port refused every count in (fit, known] and took fit (0: none)
// when the entry was written. The zero entry knows nothing, so a new
// manager fills nothing. portTouched forgets a server's entries when
// its NIC-up port changes.
type upCapMemo struct {
	class [upCapSlots]tenant.Guarantee // DelayBound cleared
	caps  [upCapSlots][]uint16         // per server; nil until the slot's first class
	next  int                          // the slot the next new class takes
}

// slot returns the slot of g's class, taking over the next slot in turn
// for a class the memo does not hold and dropping that slot's entries.
// It returns -1 when a server holds more VMs than an entry's byte counts.
func (u *upCapMemo) slot(g tenant.Guarantee, servers, slotsPerServer int) int {
	if slotsPerServer > 0xff {
		return -1
	}
	g.DelayBound = 0
	for i, c := range u.caps {
		if c != nil && u.class[i] == g {
			return i
		}
	}
	i := u.next
	u.next = (i + 1) % upCapSlots
	if u.caps[i] == nil {
		u.caps[i] = make([]uint16, servers)
	} else {
		clear(u.caps[i])
	}
	u.class[i] = g
	return i
}

// forget drops server s's entries.
func (u *upCapMemo) forget(s int) {
	for _, c := range u.caps {
		if c != nil {
			c[s] = 0
		}
	}
}
