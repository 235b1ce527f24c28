package obs

import (
	"fmt"
	"sort"
	"sync"
)

// ViolationSource says which instrument emitted a ViolationEvent.
type ViolationSource uint8

const (
	// SourceDelivery is a per-packet event from the guarantee auditor:
	// one delivered packet whose NIC-to-NIC delay exceeded the admitted
	// bound d. Count is always 1.
	SourceDelivery ViolationSource = iota
	// SourceWindow is a per-window event from the SLO engine: Count
	// packets violated inside [WindowStartNs, WindowEndNs), with the
	// dominant culprit port attributed when a flight recorder ran.
	SourceWindow
)

var violationSourceNames = [...]string{"delivery", "window"}

func (s ViolationSource) String() string {
	if int(s) < len(violationSourceNames) {
		return violationSourceNames[s]
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// MarshalJSON encodes the source as its name ("delivery", "window") so
// exported incident evidence reads without a decoder ring.
func (s ViolationSource) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the name or the raw number.
func (s *ViolationSource) UnmarshalJSON(b []byte) error {
	str := string(b)
	for i, n := range violationSourceNames {
		if str == `"`+n+`"` {
			*s = ViolationSource(i)
			return nil
		}
	}
	var v uint8
	if _, err := fmt.Sscanf(str, "%d", &v); err != nil {
		return fmt.Errorf("unknown violation source %s", str)
	}
	*s = ViolationSource(v)
	return nil
}

// ViolationEvent is the one shared violation record every instrument
// emits and the incident engine consumes. The guarantee auditor
// produces per-packet events (SourceDelivery) from its delivery tap;
// the SLO engine produces per-window events (SourceWindow) whose JSON
// keys match the historical slo.Event payload, so existing consumers
// of -series exports keep parsing.
//
// Fields that an instrument cannot know are set to their "unknown"
// value: -1 for VM/SrcVM/CulpritPort, 0 for times and delays.
type ViolationEvent struct {
	// TimeNs is when the event fired on the simulated clock (delivery
	// time for per-packet events, window close for window events).
	TimeNs int64 `json:"time_ns"`
	// Source is the emitting instrument.
	Source ViolationSource `json:"source"`
	// Tenant whose guarantee was missed.
	Tenant int `json:"tenant"`
	// VM is the victim (destination) VM, -1 when unknown (window
	// events aggregate over the tenant).
	VM int `json:"vm"`
	// SrcVM is the sending VM, -1 when unknown.
	SrcVM int `json:"src_vm"`
	// WindowStartNs/WindowEndNs bound the SLO window for window
	// events; zero for per-packet events.
	WindowStartNs int64 `json:"window_start_ns"`
	WindowEndNs   int64 `json:"window_end_ns"`
	// DelayNs is the observed NIC-to-NIC delay (per-packet events).
	DelayNs int64 `json:"delay_ns"`
	// BoundNs is the admitted bound d the delay was judged against.
	BoundNs int64 `json:"bound_ns"`
	// Count is how many violations this event represents: 1 for
	// per-packet events, the window's violated-packet count for
	// window events.
	Count int64 `json:"count"`
	// CulpritPort is the port that held packets longest during the
	// window (flight-recorder attribution), -1 when unattributed.
	CulpritPort int32 `json:"culprit_port"`
	// CulpritQueueNs is the culprit's worst queueing delay.
	CulpritQueueNs int64 `json:"culprit_queue_ns"`
	// Fault labels an injected fault active when the event fired
	// (from faults.Injector.FaultIn), empty otherwise.
	Fault string `json:"fault,omitempty"`
}

// Less is the canonical violation-event order: time, then source, then
// every identifying field. Several emitters (delivery taps, SLO window
// flushes) append to one log; sorting by Less before clustering makes
// incident output independent of their interleaving.
func (e *ViolationEvent) Less(o *ViolationEvent) bool {
	if e.TimeNs != o.TimeNs {
		return e.TimeNs < o.TimeNs
	}
	if e.Source != o.Source {
		return e.Source < o.Source
	}
	if e.Tenant != o.Tenant {
		return e.Tenant < o.Tenant
	}
	if e.VM != o.VM {
		return e.VM < o.VM
	}
	if e.SrcVM != o.SrcVM {
		return e.SrcVM < o.SrcVM
	}
	if e.DelayNs != o.DelayNs {
		return e.DelayNs < o.DelayNs
	}
	if e.WindowStartNs != o.WindowStartNs {
		return e.WindowStartNs < o.WindowStartNs
	}
	if e.Count != o.Count {
		return e.Count < o.Count
	}
	return e.CulpritPort < o.CulpritPort
}

// SortViolationEvents puts events in the canonical order.
func SortViolationEvents(evs []ViolationEvent) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Less(&evs[j]) })
}

// ViolationLog collects ViolationEvents from every emitter (the
// delivery taps and the SLO engine's window flushes). Observe is
// mutex-guarded and appends into a preallocated buffer, so the
// steady-state observation path does not allocate; past the initial capacity the buffer grows like any slice,
// which amortizes to zero allocations per event.
//
// A nil *ViolationLog ignores events, so call sites can wire the tap
// unconditionally.
type ViolationLog struct {
	mu  sync.Mutex
	evs []ViolationEvent
}

// NewViolationLog returns a log preallocated for capacity events
// (minimum 64).
func NewViolationLog(capacity int) *ViolationLog {
	if capacity < 64 {
		capacity = 64
	}
	return &ViolationLog{evs: make([]ViolationEvent, 0, capacity)}
}

// Observe appends one event. Safe for concurrent use; allocation-free
// while the preallocated capacity lasts.
func (l *ViolationLog) Observe(ev ViolationEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// Len returns the number of collected events.
func (l *ViolationLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.evs)
}

// Events returns a copy of the collected events in canonical order.
func (l *ViolationLog) Events() []ViolationEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]ViolationEvent, len(l.evs))
	copy(out, l.evs)
	l.mu.Unlock()
	SortViolationEvents(out)
	return out
}

// Reset drops all collected events, keeping the buffer.
func (l *ViolationLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.evs = l.evs[:0]
	l.mu.Unlock()
}
