package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Op is a scheduled action on a fault target.
type Op uint8

const (
	OpDown Op = iota
	OpUp
	OpGray
	OpFlap
)

// String names the op (the grammar keyword).
func (o Op) String() string {
	switch o {
	case OpDown:
		return "down"
	case OpUp:
		return "up"
	case OpGray:
		return "gray"
	case OpFlap:
		return "flap"
	}
	return "unknown"
}

// TargetKind classifies what a schedule entry acts on.
type TargetKind uint8

const (
	TargetLink TargetKind = iota
	TargetSwitch
	TargetHost
)

// Target names a fabric element.
type Target struct {
	Kind   TargetKind
	Port   int    // TargetLink: directed port ID
	Switch string // TargetSwitch: "core", "podN", "torN"
	Host   int    // TargetHost: server ID
}

// Action is one parsed schedule entry.
type Action struct {
	AtNs   int64
	Target Target
	Op     Op
	// DurNs is the gray-failure duration (OpGray).
	DurNs int64
	// Flap parameters (OpFlap).
	Cycles int
	DownNs int64
	UpNs   int64
}

// Schedule is an ordered list of fault actions.
type Schedule []Action

// ParseSchedule parses the -fault flag grammar:
//
//	schedule := entry (',' entry)*
//	entry    := "t=" DUR [target] action
//	target   := "link" PORT | "switch" NAME | "host" ID
//	action   := "down" | "up" | "gray" DUR | "flap" NxDUR/DUR
//	DUR      := Go duration ("2s", "1500us", "1.5ms")
//	NAME     := "core" | "podN" | "torN"
//
// An entry with no target reuses the previous entry's target, so
// "t=2s link 14 down, t=4s up" fails port 14 at 2s and restores it at
// 4s. "flap 3x100us/200us" runs three down(100µs)/up(200µs) cycles;
// "gray 500us" drops arrivals for 500µs while the port stays up.
// Target IDs are validated against the topology at Injector.Apply, not
// here. Errors name the offending entry; malformed input never panics.
func ParseSchedule(s string) (Schedule, error) {
	var sched Schedule
	var prev *Target
	entries := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' })
	for i, raw := range entries {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		a, err := parseEntry(entry, prev)
		if err != nil {
			return nil, fmt.Errorf("faults: entry %d %q: %w", i+1, entry, err)
		}
		sched = append(sched, a)
		t := a.Target
		prev = &t
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("faults: empty schedule")
	}
	return sched, nil
}

func parseEntry(entry string, prev *Target) (Action, error) {
	var a Action
	fields := strings.Fields(entry)
	if len(fields) == 0 {
		return a, fmt.Errorf("empty entry")
	}
	if !strings.HasPrefix(fields[0], "t=") {
		return a, fmt.Errorf(`must start with "t=<duration>"`)
	}
	at, err := time.ParseDuration(strings.TrimPrefix(fields[0], "t="))
	if err != nil {
		return a, fmt.Errorf("bad time %q: %v", fields[0], err)
	}
	if at < 0 {
		return a, fmt.Errorf("time %v is negative", at)
	}
	a.AtNs = at.Nanoseconds()
	rest := fields[1:]

	// Optional target.
	switch {
	case len(rest) >= 2 && rest[0] == "link":
		pid, err := strconv.Atoi(rest[1])
		if err != nil {
			return a, fmt.Errorf("bad port id %q", rest[1])
		}
		a.Target = Target{Kind: TargetLink, Port: pid}
		rest = rest[2:]
	case len(rest) >= 2 && rest[0] == "switch":
		a.Target = Target{Kind: TargetSwitch, Switch: rest[1]}
		rest = rest[2:]
	case len(rest) >= 2 && rest[0] == "host":
		h, err := strconv.Atoi(rest[1])
		if err != nil {
			return a, fmt.Errorf("bad host id %q", rest[1])
		}
		a.Target = Target{Kind: TargetHost, Host: h}
		rest = rest[2:]
	default:
		if prev == nil {
			return a, fmt.Errorf("no target (and no previous entry to inherit one from)")
		}
		a.Target = *prev
	}

	if len(rest) == 0 {
		return a, fmt.Errorf(`missing action (want "down", "up", "gray <dur>", or "flap <n>x<down>/<up>")`)
	}
	switch rest[0] {
	case "down":
		a.Op = OpDown
	case "up":
		a.Op = OpUp
	case "gray":
		if len(rest) < 2 {
			return a, fmt.Errorf(`"gray" needs a duration, e.g. "gray 500us"`)
		}
		d, err := time.ParseDuration(rest[1])
		if err != nil || d <= 0 {
			return a, fmt.Errorf("bad gray duration %q", rest[1])
		}
		a.Op = OpGray
		a.DurNs = d.Nanoseconds()
		rest = rest[1:]
	case "flap":
		if len(rest) < 2 {
			return a, fmt.Errorf(`"flap" needs parameters, e.g. "flap 3x100us/200us"`)
		}
		n, downNs, upNs, err := parseFlap(rest[1])
		if err != nil {
			return a, err
		}
		a.Op = OpFlap
		a.Cycles, a.DownNs, a.UpNs = n, downNs, upNs
		rest = rest[1:]
	default:
		return a, fmt.Errorf("unknown action %q", rest[0])
	}
	if len(rest) > 1 {
		return a, fmt.Errorf("trailing tokens %q", strings.Join(rest[1:], " "))
	}
	return a, nil
}

// parseFlap parses "<n>x<down>/<up>", e.g. "3x100us/200us".
func parseFlap(s string) (cycles int, downNs, upNs int64, err error) {
	nStr, durs, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, 0, fmt.Errorf(`bad flap spec %q (want "<n>x<down>/<up>")`, s)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 || n > 1<<20 {
		return 0, 0, 0, fmt.Errorf("bad flap cycle count %q", nStr)
	}
	downStr, upStr, ok := strings.Cut(durs, "/")
	if !ok {
		return 0, 0, 0, fmt.Errorf(`bad flap spec %q (want "<n>x<down>/<up>")`, s)
	}
	down, err := time.ParseDuration(downStr)
	if err != nil || down <= 0 {
		return 0, 0, 0, fmt.Errorf("bad flap down duration %q", downStr)
	}
	up, err := time.ParseDuration(upStr)
	if err != nil || up <= 0 {
		return 0, 0, 0, fmt.Errorf("bad flap up duration %q", upStr)
	}
	return n, down.Nanoseconds(), up.Nanoseconds(), nil
}
