// Package silo is a Go implementation of Silo (SIGCOMM 2015):
// predictable message latency for cloud applications in multi-tenant
// datacenters.
//
// Silo gives each tenant VM three network guarantees — bandwidth B,
// burst allowance S, and in-network packet delay d (plus a burst-rate
// cap Bmax) — from which the tenant can compute a hard upper bound on
// the latency of any message between its VMs. Two mechanisms enforce
// the guarantees:
//
//   - a placement manager that admits tenants and places their VMs
//     using network calculus, so that worst-case queuing at every
//     switch port stays within the port's buffer (no loss) and the
//     queue capacities along every intra-tenant path sum to at most d;
//   - a hypervisor pacer that shapes each VM's traffic to its
//     guarantee with a token-bucket hierarchy and achieves
//     sub-microsecond inter-packet spacing without losing NIC I/O
//     batching, by padding batches with "void" packets that the first
//     switch discards.
//
// # Quick start
//
//	tree, _ := silo.NewDatacenter(silo.DatacenterConfig{
//		Pods: 1, RacksPerPod: 4, ServersPerRack: 10, SlotsPerServer: 8,
//		LinkBps: silo.Gbps(10), BufferBytes: 312e3,
//		NICBufferBytes: 62.5e3, RackOversub: 5, PodOversub: 5,
//	})
//	ctl := silo.NewController(tree, silo.PlacementOptions{})
//	h, err := ctl.Admit(silo.TenantSpec{
//		Name: "oldi", VMs: 16,
//		Guarantee: silo.Guarantee{
//			BandwidthBps: silo.Mbps(250), BurstBytes: 15e3,
//			DelayBound: 1e-3, BurstRateBps: silo.Gbps(1),
//		},
//	})
//	// err == nil: the tenant's guarantees are enforceable. A 20 KB
//	// message will never take longer than:
//	bound := ctl.MessageLatencyBound(h, 20e3)
//
// The packet-level simulator (NewNetwork / NewFabric) lets you run
// paced tenants against TCP/DCTCP/HULL baselines; the flow-level
// simulator (flowsim) reproduces the paper's datacenter-scale
// placement study. See the examples directory and EXPERIMENTS.md.
package silo

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/workload"
)

// Rate helpers convert link speeds to the bytes/second used
// throughout.

// Gbps converts gigabits/sec to bytes/sec.
func Gbps(g float64) float64 { return g * units.Gbps }

// Mbps converts megabits/sec to bytes/sec.
func Mbps(m float64) float64 { return m * units.Mbps }

// Topology.

// DatacenterConfig describes a multi-rooted tree datacenter.
type DatacenterConfig = topology.Config

// Datacenter is an instantiated topology.
type Datacenter = topology.Tree

// NewDatacenter builds a datacenter from a config.
func NewDatacenter(cfg DatacenterConfig) (*Datacenter, error) { return topology.New(cfg) }

// Tenants and guarantees.

// Guarantee is the per-VM triple {B, S, d} plus Bmax.
type Guarantee = tenant.Guarantee

// TenantSpec is a tenant admission request.
type TenantSpec = tenant.Spec

// TenantPlacement records where a tenant's VMs landed.
type TenantPlacement = tenant.Placement

// TenantClass partitions tenants by guarantee level.
type TenantClass = tenant.Class

// Tenant classes.
const (
	ClassGuaranteed = tenant.ClassGuaranteed
	ClassBestEffort = tenant.ClassBestEffort
)

// Control plane.

// Controller is Silo's control plane: admission, placement, pacer
// configuration.
type Controller = core.Controller

// TenantHandle is an admitted tenant.
type TenantHandle = core.Handle

// PlacementOptions tunes the placement manager.
type PlacementOptions = placement.Options

// NewController returns a Silo control plane over a datacenter.
func NewController(tree *Datacenter, opts PlacementOptions) *Controller {
	return core.New(tree, opts)
}

// ErrRejected is returned (wrapped) when admission control cannot
// satisfy a request.
var ErrRejected = placement.ErrRejected

// Baseline placers (for comparisons).

// NewOktopusPlacer returns the bandwidth-only baseline placer.
func NewOktopusPlacer(tree *Datacenter) *placement.Oktopus { return placement.NewOktopus(tree) }

// NewLocalityPlacer returns the network-oblivious greedy placer.
func NewLocalityPlacer(tree *Datacenter) *placement.Locality { return placement.NewLocality(tree) }

// Packet-level simulation.

// Network is a packet-level datacenter instance.
type Network = netsim.Network

// NetworkOptions configures switch behaviour.
type NetworkOptions = netsim.Options

// NetPacket is one simulated frame.
type NetPacket = netsim.Packet

// Sim is the discrete-event clock.
type Sim = netsim.Sim

// NewNetwork instantiates a datacenter as a packet-level simulation.
func NewNetwork(tree *Datacenter, opts NetworkOptions) *Network {
	return netsim.Build(netsim.NewSim(), tree, opts)
}

// Transports.

// Fabric wires transport endpoints onto a network.
type Fabric = transport.Fabric

// Endpoint is one VM's transport stack.
type Endpoint = transport.Endpoint

// Message is one application message with latency/RTO accounting.
type Message = transport.Message

// TransportOptions configures an endpoint.
type TransportOptions = transport.Options

// Transport variants.
const (
	TransportReno  = transport.Reno
	TransportDCTCP = transport.DCTCP
)

// NewFabric attaches a transport fabric to a network.
func NewFabric(nw *Network) *Fabric { return transport.NewFabric(nw) }

// Pacing primitives (exposed for direct use and benchmarks).

// PacerGuarantee configures a VM pacer.
type PacerGuarantee = pacer.Guarantee

// PacedVM is one VM's token-bucket chain.
type PacedVM = pacer.VM

// Batcher implements paced IO batching with void packets.
type Batcher = pacer.Batcher

// NewPacedVM returns a pacer for one VM.
func NewPacedVM(id int, g PacerGuarantee, start int64) *PacedVM {
	return pacer.NewVM(id, g, start)
}

// NewBatcher returns a paced-IO batcher for a NIC line rate.
func NewBatcher(lineRateBps float64) *Batcher { return pacer.NewBatcher(lineRateBps) }

// Workload patterns.

// Pattern maps each source VM index to destination VM indices.
type Pattern = workload.Pattern

// AllToOne returns the OLDI partition/aggregate pattern.
func AllToOne(n int) Pattern { return workload.AllToOne(n) }

// AllToAll returns the shuffle pattern.
func AllToAll(n int) Pattern { return workload.AllToAll(n) }
