// Package topology models the multi-rooted tree datacenter networks
// Silo places tenants into (paper §4.2.1): servers with VM slots are
// grouped into racks, racks into pods, pods under a datacenter core.
// Every inter-level link is a pair of directed ports (up and down),
// each with a line rate and a finite packet buffer whose drain time is
// the port's queue capacity.
//
// The placement manager reasons about directed ports: traffic from VM
// i to VM j traverses a deterministic sequence of ports (up from i's
// server to the lowest common ancestor, then down to j's server).
// Multi-rooted cores are modelled as a single aggregated core switch
// whose port rates are scaled by the number of roots — the standard
// fluid simplification for placement work, which preserves
// oversubscription ratios.
package topology

import (
	"fmt"
)

// Level identifies a tier of the tree.
type Level int

// Tree levels, bottom-up.
const (
	LevelServer Level = iota // server NIC
	LevelRack                // top-of-rack switch
	LevelPod                 // pod/aggregation switch
	LevelCore                // datacenter core
)

func (l Level) String() string {
	switch l {
	case LevelServer:
		return "server"
	case LevelRack:
		return "rack"
	case LevelPod:
		return "pod"
	case LevelCore:
		return "core"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Direction of a directed port relative to the tree.
type Direction int

// Port directions.
const (
	Up   Direction = iota // toward the core
	Down                  // toward the servers
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Port is one directed switch/NIC output port.
type Port struct {
	ID    int
	Level Level     // level of the device owning the port
	Dir   Direction // traffic direction through the port
	// RateBps is the port's line rate in bytes per second.
	RateBps float64
	// BufferBytes is the packet buffer behind the port.
	BufferBytes float64
}

// QueueCapacity returns the port's queue capacity in seconds: the
// maximum queuing delay before the buffer overflows (paper §4.2.1 —
// "a 10Gbps port with a 100KB buffer has a 80µs queue capacity").
func (p *Port) QueueCapacity() float64 {
	if p.RateBps <= 0 {
		return 0
	}
	return p.BufferBytes / p.RateBps
}

// Config describes a three-tier tree datacenter.
type Config struct {
	Pods           int // number of pods
	RacksPerPod    int
	ServersPerRack int
	SlotsPerServer int // VM slots per server

	// LinkBps is the server NIC line rate in bytes/second; rack and pod
	// uplinks are derived from it and the oversubscription factors.
	LinkBps float64

	// BufferBytes is the per-port packet buffer at every switch port.
	BufferBytes float64

	// NICBufferBytes is the buffer behind the server NIC egress port.
	// Silo's pacer bounds NIC queuing to one IO batch (paper §5 uses
	// 50 µs batches), so this is typically much smaller than switch
	// buffers. Zero means "same as BufferBytes".
	NICBufferBytes float64

	// CPUPerServer and MemoryPerServer are non-network capacities in
	// abstract units, consumed by tenant.Spec.CPUPerVM/MemoryPerVM
	// during placement. Zero means unconstrained.
	CPUPerServer    float64
	MemoryPerServer float64

	// Oversubscription per level: a rack with S servers and
	// oversubscription O has uplink capacity S·LinkBps/O. The paper
	// uses 1:5 at each level.
	RackOversub float64
	PodOversub  float64
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Pods <= 0 || c.RacksPerPod <= 0 || c.ServersPerRack <= 0 || c.SlotsPerServer <= 0:
		return fmt.Errorf("topology: all element counts must be positive: %+v", c)
	case c.LinkBps <= 0:
		return fmt.Errorf("topology: LinkBps must be positive")
	case c.BufferBytes <= 0:
		return fmt.Errorf("topology: BufferBytes must be positive")
	case c.RackOversub < 1 || c.PodOversub < 1:
		return fmt.Errorf("topology: oversubscription factors must be >= 1")
	}
	return nil
}

// Tree is an instantiated datacenter.
type Tree struct {
	cfg   Config
	ports []Port

	// Precomputed port-ID bases for each port family; see portID
	// helpers below.
	serverUpBase int
	rackUpBase   int
	rackDownBase int
	podUpBase    int
	podDownBase  int
	coreDownBase int
	numPorts     int
}

// New builds a datacenter from cfg.
func New(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg}
	nServers := cfg.Pods * cfg.RacksPerPod * cfg.ServersPerRack
	nRacks := cfg.Pods * cfg.RacksPerPod

	t.serverUpBase = 0                       // one up port per server (NIC egress)
	t.rackUpBase = t.serverUpBase + nServers // one up port per rack
	t.rackDownBase = t.rackUpBase + nRacks   // one down port per server (ToR -> server)
	t.podUpBase = t.rackDownBase + nServers  // one up port per pod
	t.podDownBase = t.podUpBase + cfg.Pods   // one down port per rack (pod -> ToR)
	t.coreDownBase = t.podDownBase + nRacks  // one down port per pod (core -> pod)
	t.numPorts = t.coreDownBase + cfg.Pods

	rackUpRate := cfg.LinkBps * float64(cfg.ServersPerRack) / cfg.RackOversub
	podUpRate := rackUpRate * float64(cfg.RacksPerPod) / cfg.PodOversub

	nicBuf := cfg.NICBufferBytes
	if nicBuf <= 0 {
		nicBuf = cfg.BufferBytes
	}
	t.ports = make([]Port, t.numPorts)
	for s := 0; s < nServers; s++ {
		t.ports[t.serverUpBase+s] = Port{ID: t.serverUpBase + s, Level: LevelServer, Dir: Up, RateBps: cfg.LinkBps, BufferBytes: nicBuf}
		t.ports[t.rackDownBase+s] = Port{ID: t.rackDownBase + s, Level: LevelRack, Dir: Down, RateBps: cfg.LinkBps, BufferBytes: cfg.BufferBytes}
	}
	for r := 0; r < nRacks; r++ {
		t.ports[t.rackUpBase+r] = Port{ID: t.rackUpBase + r, Level: LevelRack, Dir: Up, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}
		t.ports[t.podDownBase+r] = Port{ID: t.podDownBase + r, Level: LevelPod, Dir: Down, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}
	}
	for p := 0; p < cfg.Pods; p++ {
		t.ports[t.podUpBase+p] = Port{ID: t.podUpBase + p, Level: LevelPod, Dir: Up, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}
		t.ports[t.coreDownBase+p] = Port{ID: t.coreDownBase + p, Level: LevelCore, Dir: Down, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}
	}
	return t, nil
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Counts.

// Servers returns the total number of servers.
func (t *Tree) Servers() int {
	return t.cfg.Pods * t.cfg.RacksPerPod * t.cfg.ServersPerRack
}

// Racks returns the total number of racks.
func (t *Tree) Racks() int { return t.cfg.Pods * t.cfg.RacksPerPod }

// Pods returns the number of pods.
func (t *Tree) Pods() int { return t.cfg.Pods }

// Slots returns the total number of VM slots.
func (t *Tree) Slots() int { return t.Servers() * t.cfg.SlotsPerServer }

// NumPorts returns the number of directed ports.
func (t *Tree) NumPorts() int { return t.numPorts }

// Port returns the directed port with the given ID.
func (t *Tree) Port(id int) *Port { return &t.ports[id] }

// Coordinates.

// RackOfServer returns the rack index of server s.
func (t *Tree) RackOfServer(s int) int { return s / t.cfg.ServersPerRack }

// PodOfServer returns the pod index of server s.
func (t *Tree) PodOfServer(s int) int { return s / (t.cfg.ServersPerRack * t.cfg.RacksPerPod) }

// PodOfRack returns the pod index of rack r.
func (t *Tree) PodOfRack(r int) int { return r / t.cfg.RacksPerPod }

// ServersOfRack returns the server-index range [lo, hi) of rack r.
func (t *Tree) ServersOfRack(r int) (lo, hi int) {
	return r * t.cfg.ServersPerRack, (r + 1) * t.cfg.ServersPerRack
}

// RacksOfPod returns the rack-index range [lo, hi) of pod p.
func (t *Tree) RacksOfPod(p int) (lo, hi int) {
	return p * t.cfg.RacksPerPod, (p + 1) * t.cfg.RacksPerPod
}

// Directed-port ID accessors: the integer IDs of the port families,
// for hot paths that index manager-side arrays by port ID without
// touching the Port structs themselves.

// ServerUpPortID returns the ID of server s's NIC egress port.
func (t *Tree) ServerUpPortID(s int) int { return t.serverUpBase + s }

// RackDownPortID returns the ID of the ToR port facing server s.
func (t *Tree) RackDownPortID(s int) int { return t.rackDownBase + s }

// RackUpPortID returns the ID of rack r's uplink port.
func (t *Tree) RackUpPortID(r int) int { return t.rackUpBase + r }

// PodDownPortID returns the ID of the pod port facing rack r.
func (t *Tree) PodDownPortID(r int) int { return t.podDownBase + r }

// PodUpPortID returns the ID of pod p's uplink port.
func (t *Tree) PodUpPortID(p int) int { return t.podUpBase + p }

// CoreDownPortID returns the ID of the core port facing pod p.
func (t *Tree) CoreDownPortID(p int) int { return t.coreDownBase + p }

// ServerUpPortRange returns the half-open port-ID range [lo, hi) of
// all server NIC egress ports; the port with ID lo+s belongs to
// server s.
func (t *Tree) ServerUpPortRange() (lo, hi int) {
	return t.serverUpBase, t.serverUpBase + t.Servers()
}

// RackDownPortRange returns the half-open port-ID range [lo, hi) of
// all ToR server-facing ports; the port with ID lo+s faces server s.
func (t *Tree) RackDownPortRange() (lo, hi int) {
	return t.rackDownBase, t.rackDownBase + t.Servers()
}

// AppendPathIDs appends to ids the IDs of the directed ports a packet
// traverses from server src to server dst (same order as Path) and
// returns the extended slice. It allocates only if ids lacks capacity.
func (t *Tree) AppendPathIDs(ids []int, src, dst int) []int {
	if src == dst {
		return ids
	}
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	srcPod, dstPod := t.PodOfRack(srcRack), t.PodOfRack(dstRack)
	ids = append(ids, t.ServerUpPortID(src))
	if srcRack == dstRack {
		return append(ids, t.RackDownPortID(dst))
	}
	ids = append(ids, t.RackUpPortID(srcRack))
	if srcPod == dstPod {
		return append(ids, t.PodDownPortID(dstRack), t.RackDownPortID(dst))
	}
	return append(ids,
		t.PodUpPortID(srcPod),
		t.CoreDownPortID(dstPod),
		t.PodDownPortID(dstRack),
		t.RackDownPortID(dst))
}

// Directed-port accessors.

// ServerUpPort returns the NIC egress port of server s.
func (t *Tree) ServerUpPort(s int) *Port { return &t.ports[t.serverUpBase+s] }

// RackDownPort returns the ToR port facing server s.
func (t *Tree) RackDownPort(s int) *Port { return &t.ports[t.rackDownBase+s] }

// RackUpPort returns rack r's uplink port.
func (t *Tree) RackUpPort(r int) *Port { return &t.ports[t.rackUpBase+r] }

// PodDownPort returns the pod port facing rack r.
func (t *Tree) PodDownPort(r int) *Port { return &t.ports[t.podDownBase+r] }

// PodUpPort returns pod p's uplink port.
func (t *Tree) PodUpPort(p int) *Port { return &t.ports[t.podUpBase+p] }

// CoreDownPort returns the core port facing pod p.
func (t *Tree) CoreDownPort(p int) *Port { return &t.ports[t.coreDownBase+p] }

// Path returns the ordered directed ports a packet traverses from
// server src to server dst. Same-server traffic traverses no network
// port (the paper's guarantee is NIC-to-NIC; intra-server traffic
// stays in the vswitch).
func (t *Tree) Path(src, dst int) []*Port {
	if src == dst {
		return nil
	}
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	srcPod, dstPod := t.PodOfRack(srcRack), t.PodOfRack(dstRack)

	path := []*Port{t.ServerUpPort(src)}
	if srcRack == dstRack {
		return append(path, t.RackDownPort(dst))
	}
	path = append(path, t.RackUpPort(srcRack))
	if srcPod == dstPod {
		return append(path, t.PodDownPort(dstRack), t.RackDownPort(dst))
	}
	return append(path,
		t.PodUpPort(srcPod),
		t.CoreDownPort(dstPod),
		t.PodDownPort(dstRack),
		t.RackDownPort(dst))
}

// PathDelayCapacity returns the sum of queue capacities (seconds) along
// the path from src to dst — the delay bound Silo's placement uses for
// constraint 2. It walks the path without materializing it.
func (t *Tree) PathDelayCapacity(src, dst int) float64 {
	if src == dst {
		return 0
	}
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	srcPod, dstPod := t.PodOfRack(srcRack), t.PodOfRack(dstRack)
	sum := t.ServerUpPort(src).QueueCapacity() + t.RackDownPort(dst).QueueCapacity()
	if srcRack == dstRack {
		return sum
	}
	sum += t.RackUpPort(srcRack).QueueCapacity() + t.PodDownPort(dstRack).QueueCapacity()
	if srcPod == dstPod {
		return sum
	}
	return sum + t.PodUpPort(srcPod).QueueCapacity() + t.CoreDownPort(dstPod).QueueCapacity()
}
