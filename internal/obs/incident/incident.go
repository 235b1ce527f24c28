// Package incident is the correlation engine that turns seven PRs of
// instrumentation into a diagnosis system: it consumes the existing
// signal streams — guarantee-auditor delay violations, SLO burn-rate
// alerts, introspection envelope fits and per-port margins, and
// fault-injector events — and clusters them into incidents:
// time-and-topology-bounded episodes with a blast radius (tenants,
// VMs, ports), a causal timeline of constituent events, and a
// root-cause verdict from a closed taxonomy.
//
// The taxonomy mirrors the structure of Silo's guarantee, which is an
// if-then theorem (if every VM's arrivals fit its admitted {B, S}, no
// port exceeds its network-calculus bound, so no message misses d):
//
//   - injected-fault: the episode overlaps an injected fault's outage
//     window (plus grace) — the guarantee's premises were broken by
//     the harness, on purpose.
//   - self-inflicted: the victim tenant's own arrival envelope was
//     VIOLATED — the "if" failed on the victim's side, the guarantee
//     is void, and the verdict names the offending sender VMs.
//   - neighbor-interference: the victim stayed conformant but another
//     tenant's envelope was violated — the isolation claim was
//     attacked from outside, with the tightest port margin as
//     supporting evidence.
//   - bound-breach: every tracked envelope conformant, no fault
//     active, yet d was missed. This is the paper-falsifying case —
//     the admission math itself is wrong — and it must page loudly.
//   - unexplained: the engine lacked the evidence to decide (no
//     envelope tracking for the victim). Zero unexplained residue is
//     an acceptance gate for the instrumented end-to-end runs.
//
// Determinism: clustering sorts all events into a canonical order
// first (obs.SortViolationEvents), so the incident list does not
// depend on the order in which the streams appended their violations.
package incident

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
)

// Verdict is the root-cause class of an incident.
type Verdict uint8

const (
	VerdictUnexplained Verdict = iota
	VerdictInjectedFault
	VerdictSelfInflicted
	VerdictNeighborInterference
	VerdictBoundBreach
)

var verdictNames = [...]string{
	"unexplained", "injected-fault", "self-inflicted",
	"neighbor-interference", "bound-breach",
}

// Verdicts lists every verdict class in taxonomy order (metrics
// export iterates it so all families exist even at zero).
func Verdicts() []Verdict {
	return []Verdict{
		VerdictUnexplained, VerdictInjectedFault, VerdictSelfInflicted,
		VerdictNeighborInterference, VerdictBoundBreach,
	}
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// MarshalJSON encodes the verdict by name so exports read directly.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON accepts the name.
func (v *Verdict) UnmarshalJSON(b []byte) error {
	for i, n := range verdictNames {
		if string(b) == `"`+n+`"` {
			*v = Verdict(i)
			return nil
		}
	}
	return fmt.Errorf("unknown verdict %s", b)
}

// FaultWindow is one injected-fault outage window, the correlation
// form of the injector's internal outage tracking: while the window
// (extended by grace past its close) overlaps an episode, the episode
// is fault-caused.
type FaultWindow struct {
	// Label matches the injector's FaultIn label and the Fault field
	// stamped on SLO events, e.g. "switch-down switch tor0 @20000000ns".
	Label string `json:"label"`
	// Target is the failed element ("switch tor0", "link 14", "host 3").
	Target  string `json:"target"`
	StartNs int64  `json:"start_ns"`
	// EndNs is the restore time, -1 while the outage never closed.
	EndNs int64 `json:"end_ns"`
	// GraceNs extends the window past EndNs for attribution (recovery
	// storms still count as fault damage).
	GraceNs int64 `json:"grace_ns"`
	// Ports / Servers are the blast radius of the fault itself.
	Ports   []int `json:"ports,omitempty"`
	Servers []int `json:"servers,omitempty"`
}

// effectiveEndNs is the last instant the window attributes: EndNs plus
// grace, or "forever" while the outage is open.
func (w FaultWindow) effectiveEndNs() int64 {
	if w.EndNs < 0 {
		return math.MaxInt64 / 4
	}
	return w.EndNs + w.GraceNs
}

// Overlaps reports whether the window (with grace) intersects
// [sinceNs, untilNs].
func (w FaultWindow) Overlaps(sinceNs, untilNs int64) bool {
	return w.StartNs <= untilNs && w.effectiveEndNs() >= sinceNs
}

// FaultWindowsFromEvents pairs an injector's ordered event log into
// outage windows, mirroring the injector's own open-outage tracking:
// a down-kind event opens a window for its target, the next up-kind
// event for the same target closes it, and windows never closed stay
// open (EndNs -1). Labels reproduce the injector's FaultIn labels
// exactly, so an SLO event's Fault string matches its window's Label.
func FaultWindowsFromEvents(events []faults.Event, graceNs int64) []FaultWindow {
	var out []FaultWindow
	open := make(map[string]int)
	for _, ev := range events {
		if ev.Kind.IsDown() {
			if _, isOpen := open[ev.Target]; isOpen {
				continue
			}
			open[ev.Target] = len(out)
			out = append(out, FaultWindow{
				Label:   fmt.Sprintf("%s %s @%dns", ev.Kind, ev.Target, ev.TimeNs),
				Target:  ev.Target,
				StartNs: ev.TimeNs,
				EndNs:   -1,
				GraceNs: graceNs,
				Ports:   append([]int(nil), ev.Ports...),
				Servers: append([]int(nil), ev.Servers...),
			})
		} else if i, isOpen := open[ev.Target]; isOpen {
			out[i].EndNs = ev.TimeNs
			delete(open, ev.Target)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// TimelineEntry is one step of an incident's causal timeline.
type TimelineEntry struct {
	TimeNs int64 `json:"time_ns"`
	// Kind is the entry class: "fault-down", "fault-up", "violation",
	// "window", "burn-start", "burn-end", "evidence".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Incident is one correlated episode.
type Incident struct {
	ID int `json:"id"`
	// StartNs/EndNs bound the episode on the simulated clock (first to
	// last constituent event; fault windows extend the span).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`

	Verdict Verdict `json:"verdict"`
	// Reason is the one-line justification for the verdict.
	Reason string `json:"reason"`
	// Page marks verdicts that must page loudly: bound-breach means
	// the admission math was falsified.
	Page bool `json:"page,omitempty"`

	// Violations counts per-packet guarantee violations that are
	// members of this incident (every violation lands in exactly one);
	// WindowViolations sums the SLO engine's window-level counts.
	Violations       int64 `json:"violations"`
	WindowViolations int64 `json:"window_violations"`
	// WorstDelayNs / BoundNs summarize how badly d was missed.
	WorstDelayNs int64 `json:"worst_delay_ns"`
	BoundNs      int64 `json:"bound_ns"`

	// Blast radius: every tenant, victim VM, sender VM, and culprit
	// port a member event touched. Sorted, deduplicated.
	Tenants []int   `json:"tenants"`
	VMs     []int   `json:"vms,omitempty"`
	SrcVMs  []int   `json:"src_vms,omitempty"`
	Ports   []int32 `json:"ports,omitempty"`
	// Faults lists the labels of overlapping injected-fault windows.
	Faults []string `json:"faults,omitempty"`
	// CulpritTenants/CulpritVMs name who broke their envelope, for
	// self-inflicted and neighbor-interference verdicts.
	CulpritTenants []int `json:"culprit_tenants,omitempty"`
	CulpritVMs     []int `json:"culprit_vms,omitempty"`
	// MinMarginPort/MinMarginBytes carry the tightest introspection
	// port margin among the incident's ports (evidence for the
	// neighbor-interference and bound-breach distinction); port -1
	// when no introspection snapshot was supplied.
	MinMarginPort  int     `json:"min_margin_port"`
	MinMarginBytes float64 `json:"min_margin_bytes"`

	Timeline []TimelineEntry `json:"timeline"`
}
