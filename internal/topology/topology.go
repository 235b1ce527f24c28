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
	"math"
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
func (p Port) QueueCapacity() float64 {
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

	// Oversubscription per level: a rack with S servers and
	// oversubscription O has uplink capacity S·LinkBps/O. The paper
	// uses 1:5 at each level.
	RackOversub float64
	PodOversub  float64
}

// Validate checks the configuration for consistency: positive element
// counts, a positive line rate and switch buffer, oversubscription
// factors of at least 1, and a NIC buffer that is not negative. Every
// rate and buffer must be finite.
func (c Config) Validate() error {
	switch {
	case c.Pods <= 0 || c.RacksPerPod <= 0 || c.ServersPerRack <= 0 || c.SlotsPerServer <= 0:
		return fmt.Errorf("topology: all element counts must be positive: %+v", c)
	case !finiteAtLeast(c.LinkBps, 0) || c.LinkBps == 0:
		return fmt.Errorf("topology: LinkBps must be positive and finite, got %v", c.LinkBps)
	case !finiteAtLeast(c.BufferBytes, 0) || c.BufferBytes == 0:
		return fmt.Errorf("topology: BufferBytes must be positive and finite, got %v", c.BufferBytes)
	case !finiteAtLeast(c.RackOversub, 1) || !finiteAtLeast(c.PodOversub, 1):
		return fmt.Errorf("topology: oversubscription factors must be finite and >= 1, got %v and %v", c.RackOversub, c.PodOversub)
	case !finiteAtLeast(c.NICBufferBytes, 0):
		return fmt.Errorf("topology: NICBufferBytes must be finite and >= 0, got %v", c.NICBufferBytes)
	}
	return nil
}

// finiteAtLeast reports whether x is finite and at least lo; NaN is not.
func finiteAtLeast(x, lo float64) bool { return x >= lo && x < math.Inf(1) }

// family is one of the tree's six directed-port families, in port-ID
// order.
type family int

const (
	famServerUp family = iota // one per server: NIC egress
	famRackUp                 // one per rack: ToR uplink
	famRackDown               // one per server: ToR -> server
	famPodUp                  // one per pod: pod uplink
	famPodDown                // one per rack: pod -> ToR
	famCoreDown               // one per pod: core -> pod
	numFamilies
)

// Tree is an instantiated datacenter. Every port of a family has the
// family's level, direction, line rate and buffer, so the tree keeps one
// template per family and stamps a port's ID on it when asked: building
// a tree costs the same whatever its size.
type Tree struct {
	cfg Config
	// tmpl[f] is family f's port with ID 0 and capSec[f] its queue
	// capacity. base[f] is the ID of the family's first port and
	// base[f+1] one past its last, so base[numFamilies] is the number of
	// ports.
	tmpl   [numFamilies]Port
	capSec [numFamilies]float64
	base   [numFamilies + 1]int
}

// New builds a datacenter from cfg.
func New(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nServers := cfg.Pods * cfg.RacksPerPod * cfg.ServersPerRack
	nRacks := cfg.Pods * cfg.RacksPerPod
	rackUpRate := cfg.LinkBps * float64(cfg.ServersPerRack) / cfg.RackOversub
	podUpRate := rackUpRate * float64(cfg.RacksPerPod) / cfg.PodOversub
	nicBuf := cfg.NICBufferBytes
	if nicBuf == 0 {
		nicBuf = cfg.BufferBytes
	}
	t := &Tree{cfg: cfg}
	for f, fam := range [numFamilies]struct {
		n    int
		port Port
	}{
		famServerUp: {nServers, Port{Level: LevelServer, Dir: Up, RateBps: cfg.LinkBps, BufferBytes: nicBuf}},
		famRackUp:   {nRacks, Port{Level: LevelRack, Dir: Up, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}},
		famRackDown: {nServers, Port{Level: LevelRack, Dir: Down, RateBps: cfg.LinkBps, BufferBytes: cfg.BufferBytes}},
		famPodUp:    {cfg.Pods, Port{Level: LevelPod, Dir: Up, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}},
		famPodDown:  {nRacks, Port{Level: LevelPod, Dir: Down, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}},
		famCoreDown: {cfg.Pods, Port{Level: LevelCore, Dir: Down, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}},
	} {
		t.tmpl[f] = fam.port
		t.capSec[f] = fam.port.QueueCapacity()
		t.base[f+1] = t.base[f] + fam.n
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
func (t *Tree) NumPorts() int { return t.base[numFamilies] }

// Port returns the directed port with the given ID. It panics on an ID
// outside [0, NumPorts()).
func (t *Tree) Port(id int) Port {
	f := t.family(id)
	return t.port(f, id-t.base[f])
}

// Line returns the line rate (bytes/s) and queue capacity (seconds) of
// the port with the given ID — the two fields admission reads — without
// building the Port. It panics on an ID outside [0, NumPorts()).
func (t *Tree) Line(id int) (rateBps, capacitySec float64) {
	f := t.family(id)
	return t.tmpl[f].RateBps, t.capSec[f]
}

// family returns the family of the port with the given ID. An ID
// outside [0, NumPorts()), negative ones included as unsigned, passes
// every family's end and panics indexing base past its last entry.
func (t *Tree) family(id int) family {
	f := famServerUp
	for uint(id) >= uint(t.base[f+1]) {
		f++
	}
	return f
}

// port returns the i-th port of family f.
func (t *Tree) port(f family, i int) Port {
	p := t.tmpl[f]
	p.ID = t.base[f] + i
	return p
}

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
// for hot paths that index manager-side arrays by port ID.

// ServerUpPortID returns the ID of server s's NIC egress port.
func (t *Tree) ServerUpPortID(s int) int { return t.base[famServerUp] + s }

// RackDownPortID returns the ID of the ToR port facing server s.
func (t *Tree) RackDownPortID(s int) int { return t.base[famRackDown] + s }

// RackUpPortID returns the ID of rack r's uplink port.
func (t *Tree) RackUpPortID(r int) int { return t.base[famRackUp] + r }

// PodDownPortID returns the ID of the pod port facing rack r.
func (t *Tree) PodDownPortID(r int) int { return t.base[famPodDown] + r }

// PodUpPortID returns the ID of pod p's uplink port.
func (t *Tree) PodUpPortID(p int) int { return t.base[famPodUp] + p }

// CoreDownPortID returns the ID of the core port facing pod p.
func (t *Tree) CoreDownPortID(p int) int { return t.base[famCoreDown] + p }

// ServerUpPortRange returns the half-open port-ID range [lo, hi) of
// all server NIC egress ports; the port with ID lo+s belongs to
// server s.
func (t *Tree) ServerUpPortRange() (lo, hi int) {
	return t.base[famServerUp], t.base[famServerUp+1]
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
func (t *Tree) ServerUpPort(s int) Port { return t.port(famServerUp, s) }

// RackDownPort returns the ToR port facing server s.
func (t *Tree) RackDownPort(s int) Port { return t.port(famRackDown, s) }

// RackUpPort returns rack r's uplink port.
func (t *Tree) RackUpPort(r int) Port { return t.port(famRackUp, r) }

// PodDownPort returns the pod port facing rack r.
func (t *Tree) PodDownPort(r int) Port { return t.port(famPodDown, r) }

// PodUpPort returns pod p's uplink port.
func (t *Tree) PodUpPort(p int) Port { return t.port(famPodUp, p) }

// CoreDownPort returns the core port facing pod p.
func (t *Tree) CoreDownPort(p int) Port { return t.port(famCoreDown, p) }

// Path returns the ordered directed ports a packet traverses from
// server src to server dst. Same-server traffic traverses no network
// port (the paper's guarantee is NIC-to-NIC; intra-server traffic
// stays in the vswitch).
func (t *Tree) Path(src, dst int) []Port {
	var buf [6]int
	ids := t.AppendPathIDs(buf[:0], src, dst)
	if len(ids) == 0 {
		return nil
	}
	path := make([]Port, len(ids))
	for i, id := range ids {
		path[i] = t.Port(id)
	}
	return path
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
