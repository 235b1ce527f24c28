package core

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Scheme identifies one end-to-end system configuration from the
// paper's comparison (§6.2): which placement algorithm admits tenants,
// how switches are configured, which transport endpoints run, and
// whether (and how) the hypervisor paces VM egress.
type Scheme int

// Schemes under comparison.
const (
	// SchemeSilo: Silo placement + full pacing (B, S, Bmax, voids) +
	// TCP.
	SchemeSilo Scheme = iota
	// SchemeTCP: locality placement, plain TCP, no protection.
	SchemeTCP
	// SchemeDCTCP: locality placement, DCTCP with ECN switches.
	SchemeDCTCP
	// SchemeHULL: locality placement, DCTCP over phantom queues.
	SchemeHULL
	// SchemeOkto: Oktopus placement + average-rate enforcement
	// (no bursts) + TCP.
	SchemeOkto
	// SchemeOktoPlus: Oktopus placement + rate enforcement with burst
	// allowance + TCP.
	SchemeOktoPlus
)

// AllSchemes lists the comparison set in the paper's order.
var AllSchemes = []Scheme{SchemeSilo, SchemeTCP, SchemeDCTCP, SchemeHULL, SchemeOkto, SchemeOktoPlus}

// PropNs is the per-link propagation delay of every simulated fabric.
const PropNs = 200

// mtuBytes is the wire MTU the pacer spaces frames by.
const mtuBytes = 1518

func (s Scheme) String() string {
	switch s {
	case SchemeSilo:
		return "Silo"
	case SchemeTCP:
		return "TCP"
	case SchemeDCTCP:
		return "DCTCP"
	case SchemeHULL:
		return "HULL"
	case SchemeOkto:
		return "Okto"
	case SchemeOktoPlus:
		return "Okto+"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme is the inverse of String, ignoring case ("silo", "okto+").
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// Paced reports whether the scheme rate-limits VM egress.
func (s Scheme) Paced() bool {
	return s == SchemeSilo || s == SchemeOkto || s == SchemeOktoPlus
}

// Placer returns the scheme's placement algorithm over a tree.
func (s Scheme) Placer(tree *topology.Tree) placement.Algorithm {
	switch s {
	case SchemeSilo:
		return placement.NewManager(tree, placement.Options{})
	case SchemeOkto, SchemeOktoPlus:
		return placement.NewOktopus(tree)
	default:
		return placement.NewLocality(tree)
	}
}

// NetOptions returns the scheme's switch configuration.
func (s Scheme) NetOptions() netsim.Options {
	o := netsim.Options{PropNs: PropNs}
	switch s {
	case SchemeDCTCP:
		// DCTCP marking threshold K ≈ 65 packets at 10 Gbps
		// (Alizadeh et al. use K=65 MTU for 10 GbE).
		o.ECNThresholdBytes = 65 * 1500
	case SchemeHULL:
		// HULL: phantom queue draining at 95% line rate, marking at
		// ~1 KB × (rate/1Gbps) ≈ 15 KB at 10 GbE.
		o.PhantomGamma = 0.95
		o.PhantomThresholdBytes = 15e3
	}
	return o
}

// TransportOptions returns the scheme's endpoint configuration
// (Controller.Deploy decides Paced and Prio per tenant). minRTO follows
// each system's deployment practice: 200 ms for stock TCP and the
// rate-enforced schemes (which run stock stacks), 10 ms for DCTCP/HULL.
func (s Scheme) TransportOptions() transport.Options {
	// 256 KB send buffers: ~2× the BDP of a 10 GbE datacenter path,
	// matching OS autotuning on low-RTT networks.
	const wmem = 256 << 10
	switch s {
	case SchemeDCTCP, SchemeHULL:
		return transport.Options{Variant: transport.DCTCP, MinRTONs: 10_000_000, MaxCwndBytes: wmem}
	default:
		return transport.Options{Variant: transport.Reno, MinRTONs: 200_000_000, MaxCwndBytes: wmem}
	}
}

// PacerGuarantee maps a tenant guarantee to the scheme's pacer
// configuration; ok is false for unpaced schemes.
func (s Scheme) PacerGuarantee(g tenant.Guarantee) (pg pacer.Guarantee, ok bool) {
	switch s {
	case SchemeSilo, SchemeOktoPlus:
		// Okto+ adds Silo's burst allowance on top of Oktopus
		// placement.
		return pacer.Guarantee{
			BandwidthBps: g.BandwidthBps,
			BurstBytes:   g.BurstBytes,
			BurstRateBps: g.BurstRateBps,
			MTUBytes:     mtuBytes,
		}, true
	case SchemeOkto:
		// Oktopus enforces the average rate only: no burst, bursts go
		// at B.
		return pacer.Guarantee{
			BandwidthBps: g.BandwidthBps,
			BurstBytes:   mtuBytes,
			BurstRateBps: g.BandwidthBps,
			MTUBytes:     mtuBytes,
		}, true
	default:
		return pacer.Guarantee{}, false
	}
}
