// Package faults is the deterministic fault-injection engine for the
// Silo simulator. An Injector, scheduled on the simulation clock, can
// fail and restore individual links (directed ports), whole switches
// (every attached port plus transit), and hosts (NIC + resident VMs),
// and can model transient failures: flap sequences and gray-failure
// drop bursts on a port. Every applied event is a structured record:
// the injector keeps an ordered log, exposes the outage windows for
// fault attribution (FaultIn, which labels a run's window events), and
// offers an OnEvent callback the recovery control loop listens on.
//
// Determinism: the injector holds no randomness and reads no wall
// clock. A schedule applied to the same network and seed produces the
// same event log and the same packet-level outcome on every run.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// Kind classifies an injected event.
type Kind uint8

const (
	KindLinkDown Kind = iota
	KindLinkUp
	KindLinkGrayStart
	KindLinkGrayEnd
	KindSwitchDown
	KindSwitchUp
	KindHostDown
	KindHostUp
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	case KindLinkGrayStart:
		return "link-gray-start"
	case KindLinkGrayEnd:
		return "link-gray-end"
	case KindSwitchDown:
		return "switch-down"
	case KindSwitchUp:
		return "switch-up"
	case KindHostDown:
		return "host-down"
	case KindHostUp:
		return "host-up"
	}
	return "unknown"
}

// IsDown reports whether the kind opens an outage (gray bursts count:
// they lose traffic even though the port is nominally up).
func (k Kind) IsDown() bool {
	return k == KindLinkDown || k == KindLinkGrayStart || k == KindSwitchDown || k == KindHostDown
}

// Event is one applied fault, a structured record consumable by obs
// and the recovery control loop.
type Event struct {
	TimeNs int64  `json:"time_ns"`
	Kind   Kind   `json:"kind"`
	Target string `json:"target"` // e.g. "link 14", "switch tor0", "host 3"
	// Port / HostID identify the primary element (-1 when not a
	// link/host event).
	Port   int `json:"port"`
	HostID int `json:"host"`
	// Servers lists every server whose connectivity the event breaks
	// or repairs — the recovery control loop's input. Sorted.
	Servers []int `json:"servers,omitempty"`
	// Ports lists every directed port the event takes down or up
	// (one entry for a link, the full attached set for a switch).
	Ports []int `json:"ports,omitempty"`
}

func (e Event) String() string {
	return fmt.Sprintf("t=%dns %s %s", e.TimeNs, e.Kind, e.Target)
}

// outage is one contiguous window during which a target was losing
// traffic. endNs < 0 while still open.
type outage struct {
	label   string
	startNs int64
	endNs   int64
}

// Injector applies faults to a built network. Not safe for concurrent
// use; like everything else in netsim it runs on the single-threaded
// simulation loop.
type Injector struct {
	nw     *netsim.Network
	events []Event
	// outages tracks loss windows per target for fault attribution.
	outages []outage
	open    map[string]int // target -> index of open outage
	// OnEvent, if set, is called with every event after its network
	// side effects have been applied.
	OnEvent func(Event)
	// GraceNs extends every closed outage window when answering
	// FaultIn: violations shortly after a restore (retransmit storms,
	// recovery migrations) still attribute to the fault. Set it before
	// the run.
	GraceNs int64
}

// NewInjector returns an injector bound to nw.
func NewInjector(nw *netsim.Network) *Injector {
	return &Injector{nw: nw, open: make(map[string]int)}
}

// Events returns the ordered log of applied events.
func (in *Injector) Events() []Event { return in.events }

func (in *Injector) record(ev Event) {
	ev.TimeNs = in.nw.Sim.Now()
	in.events = append(in.events, ev)
	if ev.Kind.IsDown() {
		if _, isOpen := in.open[ev.Target]; !isOpen {
			in.open[ev.Target] = len(in.outages)
			in.outages = append(in.outages, outage{
				label:   fmt.Sprintf("%s %s @%dns", ev.Kind, ev.Target, ev.TimeNs),
				startNs: ev.TimeNs,
				endNs:   -1,
			})
		}
	} else if i, isOpen := in.open[ev.Target]; isOpen {
		in.outages[i].endNs = ev.TimeNs
		delete(in.open, ev.Target)
	}
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}

// FaultIn reports whether any outage window (extended by GraceNs past
// its close) overlaps [sinceNs, untilNs), returning the label of the
// latest such outage. Asked after the run it gives the label it gave
// live: outages are recorded in start order, only one that started
// before untilNs can match, and an outage still open at untilNs closes
// at or after it. It allocates nothing: labels are built when the event
// is recorded.
func (in *Injector) FaultIn(sinceNs, untilNs int64) (string, bool) {
	for i := len(in.outages) - 1; i >= 0; i-- {
		o := in.outages[i]
		end := o.endNs
		if end >= 0 {
			end += in.GraceNs
			if end < sinceNs {
				continue
			}
		}
		if o.startNs < untilNs && (end < 0 || end >= sinceNs) {
			return o.label, true
		}
	}
	return "", false
}

// --- link faults ---

// FailLink fails directed port pid: queued and in-flight packets are
// dropped with fault attribution and arrivals are dropped until
// RestoreLink.
func (in *Injector) FailLink(pid int) {
	in.nw.Queues[pid].Fail()
	in.record(in.linkEvent(KindLinkDown, pid))
}

// RestoreLink brings directed port pid back into service.
func (in *Injector) RestoreLink(pid int) {
	in.nw.Queues[pid].Restore()
	in.record(in.linkEvent(KindLinkUp, pid))
}

// GrayLink puts port pid into gray failure (arrivals dropped, port
// nominally up) for durNs, scheduling the recovery itself.
func (in *Injector) GrayLink(pid int, durNs int64) {
	in.nw.Queues[pid].SetLossy(true)
	in.record(in.linkEvent(KindLinkGrayStart, pid))
	in.nw.Sim.After(durNs, func() {
		in.nw.Queues[pid].SetLossy(false)
		in.record(in.linkEvent(KindLinkGrayEnd, pid))
	})
}

// FlapLink fails and restores port pid cycles times: down for downNs,
// up for upNs, starting now.
func (in *Injector) FlapLink(pid, cycles int, downNs, upNs int64) {
	if cycles <= 0 {
		return
	}
	in.FailLink(pid)
	in.nw.Sim.After(downNs, func() {
		in.RestoreLink(pid)
		in.nw.Sim.After(upNs, func() {
			in.FlapLink(pid, cycles-1, downNs, upNs)
		})
	})
}

func (in *Injector) linkEvent(kind Kind, pid int) Event {
	return Event{
		Kind:    kind,
		Target:  fmt.Sprintf("link %d", pid),
		Port:    pid,
		HostID:  -1,
		Servers: in.linkServers(pid),
		Ports:   []int{pid},
	}
}

// linkServers lists the servers cut off (in at least one direction) by
// the loss of directed port pid.
func (in *Injector) linkServers(pid int) []int {
	tree := in.nw.Tree
	port := tree.Port(pid)
	switch {
	case port.Level == topology.LevelServer: // NIC up-port
		return []int{pid - tree.ServerUpPortID(0)}
	case port.Level == topology.LevelRack && port.Dir == topology.Down:
		return []int{pid - tree.RackDownPortID(0)}
	case port.Level == topology.LevelRack && port.Dir == topology.Up:
		return rackServers(tree, pid-tree.RackUpPortID(0))
	case port.Level == topology.LevelPod && port.Dir == topology.Down:
		return rackServers(tree, pid-tree.PodDownPortID(0))
	case port.Level == topology.LevelPod && port.Dir == topology.Up:
		return podServers(tree, pid-tree.PodUpPortID(0))
	default: // core down-port
		return podServers(tree, pid-tree.CoreDownPortID(0))
	}
}

func rackServers(tree *topology.Tree, r int) []int {
	lo, hi := tree.ServersOfRack(r)
	return serverRange(lo, hi)
}

func podServers(tree *topology.Tree, p int) []int {
	rlo, rhi := tree.RacksOfPod(p)
	lo, _ := tree.ServersOfRack(rlo)
	_, hi := tree.ServersOfRack(rhi - 1)
	return serverRange(lo, hi)
}

func serverRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	return out
}

// --- switch faults ---

// SwitchPorts lists the directed ports attached to a named switch
// ("core", "podN", "torN").
func (in *Injector) SwitchPorts(name string) ([]int, error) {
	tree := in.nw.Tree
	var kind string
	var idx int
	if name == "core" {
		kind = "core"
	} else if n, err := fmt.Sscanf(name, "tor%d", &idx); n == 1 && err == nil {
		kind = "tor"
	} else if n, err := fmt.Sscanf(name, "pod%d", &idx); n == 1 && err == nil {
		kind = "pod"
	} else {
		return nil, fmt.Errorf("faults: unknown switch %q (want core, podN, or torN)", name)
	}
	var ports []int
	switch kind {
	case "tor":
		if idx < 0 || idx >= tree.Racks() {
			return nil, fmt.Errorf("faults: switch %q out of range (%d racks)", name, tree.Racks())
		}
		ports = append(ports, tree.RackUpPortID(idx))
		lo, hi := tree.ServersOfRack(idx)
		for s := lo; s < hi; s++ {
			ports = append(ports, tree.RackDownPortID(s))
		}
	case "pod":
		if idx < 0 || idx >= tree.Pods() {
			return nil, fmt.Errorf("faults: switch %q out of range (%d pods)", name, tree.Pods())
		}
		ports = append(ports, tree.PodUpPortID(idx))
		rlo, rhi := tree.RacksOfPod(idx)
		for r := rlo; r < rhi; r++ {
			ports = append(ports, tree.PodDownPortID(r))
		}
	case "core":
		for p := 0; p < tree.Pods(); p++ {
			ports = append(ports, tree.CoreDownPortID(p))
		}
	}
	sort.Ints(ports)
	return ports, nil
}

func (in *Injector) switchByName(name string) (*netsim.Switch, []int, []int, error) {
	ports, err := in.SwitchPorts(name)
	if err != nil {
		return nil, nil, nil, err
	}
	tree := in.nw.Tree
	var sw *netsim.Switch
	var servers []int
	var idx int
	if name == "core" {
		sw = in.nw.CoreSwitch()
		servers = serverRange(0, tree.Servers())
	} else if n, _ := fmt.Sscanf(name, "tor%d", &idx); n == 1 {
		sw = in.nw.TorSwitch(idx)
		servers = rackServers(tree, idx)
	} else if n, _ := fmt.Sscanf(name, "pod%d", &idx); n == 1 {
		sw = in.nw.PodSwitch(idx)
		servers = podServers(tree, idx)
	}
	return sw, ports, servers, nil
}

// FailSwitch fails a named switch ("core", "podN", "torN"): transit
// packets are fault-dropped and every attached port fails, so buffered
// and in-flight traffic is lost and metered.
func (in *Injector) FailSwitch(name string) error {
	sw, ports, servers, err := in.switchByName(name)
	if err != nil {
		return err
	}
	sw.Fail()
	for _, pid := range ports {
		in.nw.Queues[pid].Fail()
	}
	in.record(Event{
		Kind: KindSwitchDown, Target: "switch " + name,
		Port: -1, HostID: -1, Servers: servers, Ports: ports,
	})
	return nil
}

// RestoreSwitch brings a named switch and its attached ports back.
func (in *Injector) RestoreSwitch(name string) error {
	sw, ports, servers, err := in.switchByName(name)
	if err != nil {
		return err
	}
	sw.Restore()
	for _, pid := range ports {
		in.nw.Queues[pid].Restore()
	}
	in.record(Event{
		Kind: KindSwitchUp, Target: "switch " + name,
		Port: -1, HostID: -1, Servers: servers, Ports: ports,
	})
	return nil
}

// --- host faults ---

// FailHost fails server h: its NIC port drains-and-drops, resident
// VMs stop emitting, and ingress is fault-dropped.
func (in *Injector) FailHost(h int) error {
	if h < 0 || h >= len(in.nw.Hosts) {
		return fmt.Errorf("faults: host %d out of range (%d servers)", h, len(in.nw.Hosts))
	}
	in.nw.Hosts[h].Fail()
	in.record(Event{
		Kind: KindHostDown, Target: fmt.Sprintf("host %d", h),
		Port: in.nw.Tree.ServerUpPortID(h), HostID: h,
		Servers: []int{h}, Ports: []int{in.nw.Tree.ServerUpPortID(h)},
	})
	return nil
}

// RestoreHost brings server h back.
func (in *Injector) RestoreHost(h int) error {
	if h < 0 || h >= len(in.nw.Hosts) {
		return fmt.Errorf("faults: host %d out of range (%d servers)", h, len(in.nw.Hosts))
	}
	in.nw.Hosts[h].Restore()
	in.record(Event{
		Kind: KindHostUp, Target: fmt.Sprintf("host %d", h),
		Port: in.nw.Tree.ServerUpPortID(h), HostID: h,
		Servers: []int{h}, Ports: []int{in.nw.Tree.ServerUpPortID(h)},
	})
	return nil
}

// Apply validates a parsed schedule against the network's topology and
// registers every action on the simulation clock. Validation is
// up-front: a schedule naming a port, host, or switch that does not
// exist fails before anything is scheduled.
func (in *Injector) Apply(sched Schedule) error {
	tree := in.nw.Tree
	for i, a := range sched {
		switch a.Target.Kind {
		case TargetLink:
			if a.Target.Port < 0 || a.Target.Port >= tree.NumPorts() {
				return fmt.Errorf("faults: entry %d: port %d out of range (%d ports)", i+1, a.Target.Port, tree.NumPorts())
			}
		case TargetHost:
			if a.Target.Host < 0 || a.Target.Host >= tree.Servers() {
				return fmt.Errorf("faults: entry %d: host %d out of range (%d servers)", i+1, a.Target.Host, tree.Servers())
			}
		case TargetSwitch:
			if _, err := in.SwitchPorts(a.Target.Switch); err != nil {
				return fmt.Errorf("faults: entry %d: %v", i+1, err)
			}
		}
		if (a.Op == OpGray || a.Op == OpFlap) && a.Target.Kind != TargetLink {
			return fmt.Errorf("faults: entry %d: %s applies to links only", i+1, a.Op)
		}
	}
	for _, a := range sched {
		a := a
		in.nw.Sim.At(a.AtNs, func() {
			switch a.Target.Kind {
			case TargetLink:
				switch a.Op {
				case OpDown:
					in.FailLink(a.Target.Port)
				case OpUp:
					in.RestoreLink(a.Target.Port)
				case OpGray:
					in.GrayLink(a.Target.Port, a.DurNs)
				case OpFlap:
					in.FlapLink(a.Target.Port, a.Cycles, a.DownNs, a.UpNs)
				}
			case TargetSwitch:
				if a.Op == OpDown {
					in.FailSwitch(a.Target.Switch)
				} else {
					in.RestoreSwitch(a.Target.Switch)
				}
			case TargetHost:
				if a.Op == OpDown {
					in.FailHost(a.Target.Host)
				} else {
					in.RestoreHost(a.Target.Host)
				}
			}
		})
	}
	return nil
}
