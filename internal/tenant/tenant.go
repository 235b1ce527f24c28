// Package tenant defines Silo's tenant abstraction: a set of VMs
// connected by a virtual switch, each VM shaped by the guarantee
// triple {B, S, d} plus the static burst-rate cap Bmax (paper §4.1,
// Figure 4).
//
// Guarantee semantics:
//
//   - Bandwidth B follows the hose model: a flow's bandwidth is limited
//     by the guarantee of both its sender and its receiver.
//   - Burst allowance S is NOT destination limited: all N VMs may burst
//     simultaneously to one destination (the OLDI partition/aggregate
//     pattern).
//   - Packet delay d bounds in-network (NIC-to-NIC) delay for
//     bandwidth-compliant packets.
package tenant

import (
	"fmt"
	"math"
)

// Class partitions tenants by the guarantees they buy (paper §6.2,
// Table 3).
type Class int

// Tenant classes.
const (
	// ClassGuaranteed tenants hold the full {B, S, d} triple
	// (the paper's class-A when delay-sensitive, or class-B with only
	// bandwidth mattering).
	ClassGuaranteed Class = iota
	// ClassBestEffort tenants hold no guarantees and ride the low
	// 802.1q priority (paper §4.4).
	ClassBestEffort
)

func (c Class) String() string {
	switch c {
	case ClassGuaranteed:
		return "guaranteed"
	case ClassBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Guarantee is the per-VM network guarantee triple plus the burst rate
// cap.
type Guarantee struct {
	// BandwidthBps is B: the hose-model average send/receive rate in
	// bytes per second.
	BandwidthBps float64
	// BurstBytes is S: bytes a VM that has under-used B may send above
	// its average rate.
	BurstBytes float64
	// DelayBound is d: the guaranteed NIC-to-NIC packet delay in
	// seconds (0 means the tenant buys no delay guarantee).
	DelayBound float64
	// BurstRateBps is Bmax: the static cap on the rate at which a
	// burst may be emitted.
	BurstRateBps float64
}

// Validate checks internal consistency: every field is a finite,
// non-negative number, and a nonzero Bmax is at least B.
func (g Guarantee) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"B", g.BandwidthBps}, {"S", g.BurstBytes}, {"d", g.DelayBound}, {"Bmax", g.BurstRateBps}} {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("tenant: guarantee %s = %v, want a finite number >= 0", f.name, f.v)
		}
	}
	if g.BurstRateBps > 0 && g.BurstRateBps < g.BandwidthBps {
		return fmt.Errorf("tenant: Bmax (%g) below B (%g)", g.BurstRateBps, g.BandwidthBps)
	}
	return nil
}

// finiteNonNegative reports whether x is finite and at least 0; NaN is
// not.
func finiteNonNegative(x float64) bool { return x >= 0 && x < math.Inf(1) }

// MessageLatencyBound returns the guaranteed upper bound (seconds) on
// the latency of an M-byte message sent by a VM whose burst allowance
// is unspent (paper §4.1, "Calculating latency guarantee"):
//
//	M <= S:  M/Bmax + d
//	M  > S:  S/Bmax + (M−S)/B + d
//
// A zero Bmax means bursts go at the average rate B. Returns +Inf if
// the tenant has no bandwidth guarantee.
func (g Guarantee) MessageLatencyBound(msgBytes float64) float64 {
	bmax := g.BurstRateBps
	if bmax <= 0 {
		bmax = g.BandwidthBps
	}
	if bmax <= 0 {
		return math.Inf(1)
	}
	if msgBytes <= g.BurstBytes {
		return msgBytes/bmax + g.DelayBound
	}
	if g.BandwidthBps <= 0 {
		return math.Inf(1)
	}
	return g.BurstBytes/bmax + (msgBytes-g.BurstBytes)/g.BandwidthBps + g.DelayBound
}

// Spec is a tenant request submitted to the placement manager: how
// many VMs, their class and network guarantee, and how many servers
// they must span. A VM takes one slot; placement weighs nothing else
// on the server.
type Spec struct {
	ID        int
	Name      string
	VMs       int
	Class     Class
	Guarantee Guarantee

	// FaultDomains, if > 1, requires the tenant's VMs to span at least
	// that many servers (paper §4.2.3, "Other constraints").
	FaultDomains int
}

// Validate checks the request.
func (s Spec) Validate() error {
	if s.VMs <= 0 {
		return fmt.Errorf("tenant %q: VMs must be positive, got %d", s.Name, s.VMs)
	}
	if s.FaultDomains < 0 || s.FaultDomains > s.VMs {
		return fmt.Errorf("tenant %q: FaultDomains %d out of range [0,%d]", s.Name, s.FaultDomains, s.VMs)
	}
	if s.Class == ClassGuaranteed {
		if err := s.Guarantee.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Placement records where a tenant's VMs landed: VM i runs on
// Servers[i].
type Placement struct {
	Spec    Spec
	Servers []int
}

// VMsOnServer returns how many of the placement's VMs run on server s.
func (p *Placement) VMsOnServer(s int) int {
	n := 0
	for _, srv := range p.Servers {
		if srv == s {
			n++
		}
	}
	return n
}

// DistinctServers returns the sorted set of servers used.
func (p *Placement) DistinctServers() []int {
	seen := make(map[int]bool, len(p.Servers))
	var out []int
	for _, s := range p.Servers {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	// insertion sort; placements are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
