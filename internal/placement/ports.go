package placement

// portPageBits sets the page size of the manager's per-port state: 256
// consecutive port IDs a page.
const (
	portPageBits = 8
	portPageSize = 1 << portPageBits
)

// portPage holds the aggregate state and cached queue bound of
// portPageSize consecutive ports.
type portPage struct {
	st    [portPageSize]portState
	bound [portPageSize]float64
}

// portTable is the manager's per-port admission state, paged so that it
// costs what is admitted rather than what is built. A page is allocated
// on its first write and kept. A port on a page never written reads as
// empty — no tenant, zero load, zero bound — and reading it allocates
// nothing; that is exactly what a port reads as once its last tenant has
// left, since portState.remove clamps to zero.
type portTable struct {
	pages []*portPage
}

// newPortTable returns a table for n ports with no page allocated.
func newPortTable(n int) portTable {
	return portTable{pages: make([]*portPage, (n+portPageSize-1)>>portPageBits)}
}

// state returns port pid's aggregate state by value: the empty state
// when its page is not allocated.
func (t *portTable) state(pid int) portState {
	if pg := t.pages[pid>>portPageBits]; pg != nil {
		return pg.st[pid&(portPageSize-1)]
	}
	return portState{}
}

// ref returns port pid's aggregate state for reading without copying
// it: in its page, or empty when the page is not allocated. empty must
// point at a zero portState the caller owns.
func (t *portTable) ref(pid int, empty *portState) *portState {
	if pg := t.pages[pid>>portPageBits]; pg != nil {
		return &pg.st[pid&(portPageSize-1)]
	}
	return empty
}

// bound returns port pid's cached queue bound.
func (t *portTable) bound(pid int) float64 {
	if pg := t.pages[pid>>portPageBits]; pg != nil {
		return pg.bound[pid&(portPageSize-1)]
	}
	return 0
}

// at returns port pid's state and bound for writing, allocating its page
// on the first write.
func (t *portTable) at(pid int) (*portState, *float64) {
	pg := t.pages[pid>>portPageBits]
	if pg == nil {
		pg = new(portPage)
		t.pages[pid>>portPageBits] = pg
	}
	i := pid & (portPageSize - 1)
	return &pg.st[i], &pg.bound[i]
}
