package incident

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
)

const (
	// mergeNs is the clustering gap: two events (or an event and a
	// fault window) closer than this on the simulated clock belong to
	// the same incident, so Figure 5's overload, one burst every
	// millisecond, chains into one incident.
	mergeNs = 2e6
	// maxTimeline caps the per-incident causal timeline; structural
	// entries (faults, first/last violations, evidence) are always
	// kept, per-window entries fill the rest.
	maxTimeline = 40
)

// Inputs are the signal streams one correlation joins. Any of them may
// be empty: the report says what the evidence supports.
type Inputs struct {
	// Violations is the unified violation stream: delivery-tap and
	// window events, in any order. Correlate sorts it canonically, in
	// place.
	Violations []obs.ViolationEvent
	// Faults are the injected-fault outage windows.
	Faults []faults.Window
	// Snapshot is the introspection evidence: per-VM fitted arrival
	// envelopes (the self-inflicted / neighbor-interference
	// discriminator) and per-port headroom margins (the bound-breach
	// evidence). nil when introspection was off.
	Snapshot *introspect.Snapshot
	// Ports names ports in rendered text.
	Ports []obs.PortMeta
	// Meta stamps run provenance onto the report. It is excluded from
	// Render output so determinism gates can compare rendered reports
	// across builds and command lines.
	Meta *obs.RunMeta
}

// correlation is one Correlate call's inputs.
type correlation struct {
	in Inputs
}

// clusterItem is one unit of the merge sweep: a violation event or a
// fault window, reduced to a time span.
type clusterItem struct {
	startNs, endNs int64
	ev             int // index into evs, -1 for a fault window
	fw             int // index into fault windows, -1 for an event
}

// Correlate clusters a finished run's streams into incidents. It never
// touches the simulator, so it runs once after a run or offline over
// exported artifacts. Deterministic: it first sorts in.Violations in
// place into canonical order, so the order in which the streams appended
// them cannot affect the output; nothing else of in is written.
func Correlate(in Inputs) *Report {
	c := &correlation{in: in}
	evs := in.Violations
	obs.SortViolationEvents(evs)

	items := make([]clusterItem, 0, len(evs)+len(in.Faults))
	for i := range in.Faults {
		w := &in.Faults[i]
		items = append(items, clusterItem{startNs: w.StartNs, endNs: w.AttributedEndNs(), ev: -1, fw: i})
	}
	for i := range evs {
		start := evs[i].TimeNs
		if evs[i].Source == obs.SourceWindow && evs[i].WindowStartNs < start {
			start = evs[i].WindowStartNs
		}
		items = append(items, clusterItem{startNs: start, endNs: evs[i].TimeNs, ev: i, fw: -1})
	}
	// Stable order: by start time; fault windows ahead of events at the
	// same instant; events keep canonical order (ev index ascending).
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].startNs != items[j].startNs {
			return items[i].startNs < items[j].startNs
		}
		return items[i].ev < items[j].ev
	})

	rep := &Report{Meta: in.Meta, MergeNs: mergeNs}
	var cluster []clusterItem
	var clusterEnd int64
	flush := func() {
		if inc := c.buildIncident(cluster, evs); inc != nil {
			inc.ID = len(rep.Incidents) + 1
			rep.Incidents = append(rep.Incidents, *inc)
		}
		cluster = cluster[:0]
	}
	for _, it := range items {
		if len(cluster) > 0 && it.startNs > clusterEnd+mergeNs {
			flush()
		}
		cluster = append(cluster, it)
		if len(cluster) == 1 || it.endNs > clusterEnd {
			clusterEnd = it.endNs
		}
	}
	if len(cluster) > 0 {
		flush()
	}

	for i := range rep.Incidents {
		inc := &rep.Incidents[i]
		rep.TotalViolations += inc.Violations
		rep.WindowViolations += inc.WindowViolations
		switch inc.Verdict {
		case VerdictUnexplained:
			rep.Unexplained++
		case VerdictBoundBreach:
			rep.BoundBreaches++
		}
	}
	return rep
}

// buildIncident turns one cluster into an incident, or nil when the
// cluster holds no violations (a fault window nothing suffered from is
// not an incident).
func (c *correlation) buildIncident(cluster []clusterItem, evs []obs.ViolationEvent) *Incident {
	nViol := 0
	for _, it := range cluster {
		if it.ev >= 0 {
			nViol++
		}
	}
	if nViol == 0 {
		return nil
	}

	inc := &Incident{CulpritTenants: nil, MinMarginPort: -1}
	tenants := map[int]bool{}
	vms := map[int]bool{}
	srcs := map[int]bool{}
	ports := map[int32]bool{}
	faultSeen := map[string]bool{}
	first := true
	var firstPerTenant map[int]*obs.ViolationEvent
	var lastViol *obs.ViolationEvent
	var windowEntries []TimelineEntry

	for _, it := range cluster {
		if it.fw >= 0 {
			w := &c.in.Faults[it.fw]
			if !faultSeen[w.Label] {
				faultSeen[w.Label] = true
				inc.Faults = append(inc.Faults, w.Label)
				inc.Timeline = append(inc.Timeline, TimelineEntry{
					TimeNs: w.StartNs, Kind: "fault-down",
					Detail: fmt.Sprintf("fault injected: %s (%d ports, %d servers affected)", w.Label, len(w.Ports), len(w.Servers)),
				})
				if w.EndNs >= 0 {
					inc.Timeline = append(inc.Timeline, TimelineEntry{
						TimeNs: w.EndNs, Kind: "fault-up",
						Detail: fmt.Sprintf("restored: %s (attribution grace %.1fms)", w.Target, float64(w.GraceNs)/1e6),
					})
				}
			}
			if first || w.StartNs < inc.StartNs {
				inc.StartNs = w.StartNs
			}
			if end := w.EndNs; end >= 0 && (first || end > inc.EndNs) {
				inc.EndNs = end
			}
			first = false
			continue
		}
		ev := &evs[it.ev]
		if first || it.startNs < inc.StartNs {
			inc.StartNs = it.startNs
		}
		if first || ev.TimeNs > inc.EndNs {
			inc.EndNs = ev.TimeNs
		}
		first = false
		tenants[ev.Tenant] = true
		if ev.VM >= 0 {
			vms[ev.VM] = true
		}
		if ev.SrcVM >= 0 {
			srcs[ev.SrcVM] = true
		}
		if ev.CulpritPort >= 0 {
			ports[ev.CulpritPort] = true
		}
		if ev.Fault != "" && !faultSeen[ev.Fault] {
			// A window event can carry a fault label whose window the
			// sweep missed (e.g. tight merge config); trust the stamp.
			faultSeen[ev.Fault] = true
			inc.Faults = append(inc.Faults, ev.Fault)
		}
		if ev.DelayNs > inc.WorstDelayNs {
			inc.WorstDelayNs = ev.DelayNs
		}
		if ev.BoundNs > 0 && (inc.BoundNs == 0 || ev.BoundNs < inc.BoundNs) {
			inc.BoundNs = ev.BoundNs
		}
		switch ev.Source {
		case obs.SourceDelivery:
			inc.Violations += ev.Count
			if firstPerTenant == nil {
				firstPerTenant = map[int]*obs.ViolationEvent{}
			}
			if _, ok := firstPerTenant[ev.Tenant]; !ok {
				firstPerTenant[ev.Tenant] = ev
			}
			lastViol = ev
		case obs.SourceWindow:
			inc.WindowViolations += ev.Count
			windowEntries = append(windowEntries, TimelineEntry{
				TimeNs: ev.TimeNs, Kind: "window",
				Detail: fmt.Sprintf("tenant %d window [%.3f,%.3f]ms: %d violated, culprit %s",
					ev.Tenant, float64(ev.WindowStartNs)/1e6, float64(ev.WindowEndNs)/1e6,
					ev.Count, c.portName(ev.CulpritPort)),
			})
		}
	}

	inc.Tenants = sortedInts(tenants)
	inc.VMs = sortedInts(vms)
	inc.SrcVMs = sortedInts(srcs)
	inc.Ports = sortedPorts(ports)
	sort.Strings(inc.Faults)

	firstTenants := make([]int, 0, len(firstPerTenant))
	for t := range firstPerTenant {
		firstTenants = append(firstTenants, t)
	}
	sort.Ints(firstTenants)
	for _, t := range firstTenants {
		ev := firstPerTenant[t]
		inc.Timeline = append(inc.Timeline, TimelineEntry{
			TimeNs: ev.TimeNs, Kind: "violation",
			Detail: fmt.Sprintf("tenant %d first violation: %s ← %s delayed %.1fµs (bound %.1fµs)",
				ev.Tenant, vmName(ev.VM), vmName(ev.SrcVM), float64(ev.DelayNs)/1e3, float64(ev.BoundNs)/1e3),
		})
	}
	if lastViol != nil {
		inc.Timeline = append(inc.Timeline, TimelineEntry{
			TimeNs: lastViol.TimeNs, Kind: "violation",
			Detail: fmt.Sprintf("last violation: tenant %d %s ← %s delayed %.1fµs",
				lastViol.Tenant, vmName(lastViol.VM), vmName(lastViol.SrcVM), float64(lastViol.DelayNs)/1e3),
		})
	}
	c.classify(inc)

	// Fill remaining timeline budget with per-window entries, then
	// order causally. Structural entries always survive the cap.
	if room := maxTimeline - len(inc.Timeline); room > 0 {
		if len(windowEntries) > room {
			dropped := len(windowEntries) - room
			windowEntries = windowEntries[:room]
			windowEntries = append(windowEntries[:room-1], TimelineEntry{
				TimeNs: inc.EndNs, Kind: "window",
				Detail: fmt.Sprintf("… %d more violating windows", dropped+1),
			})
		}
		inc.Timeline = append(inc.Timeline, windowEntries...)
	}
	sort.SliceStable(inc.Timeline, func(i, j int) bool {
		a, b := &inc.Timeline[i], &inc.Timeline[j]
		if a.TimeNs != b.TimeNs {
			return a.TimeNs < b.TimeNs
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	return inc
}

// classify applies the verdict taxonomy, in precedence order, and
// appends the evidence timeline entry.
func (c *correlation) classify(inc *Incident) {
	victim := map[int]bool{}
	for _, t := range inc.Tenants {
		victim[t] = true
	}

	// Envelope evidence, split by whose envelope broke.
	victimViolated := map[int][]int{}   // tenant -> violating VMs
	neighborViolated := map[int][]int{} // tenant -> violating VMs
	covered := map[int]bool{}           // victim tenants with tracked envelopes
	var envelopes []introspect.VMEnvelope
	var headrooms []introspect.PortHeadroom
	if s := c.in.Snapshot; s != nil {
		envelopes, headrooms = s.Envelopes, s.Ports
	}
	for i := range envelopes {
		env := &envelopes[i]
		if victim[env.TenantID] && env.Emissions > 0 {
			covered[env.TenantID] = true
		}
		if !env.Violated {
			continue
		}
		if victim[env.TenantID] {
			victimViolated[env.TenantID] = append(victimViolated[env.TenantID], env.VMID)
		} else {
			neighborViolated[env.TenantID] = append(neighborViolated[env.TenantID], env.VMID)
		}
	}

	// Tightest introspection margin: prefer the incident's culprit
	// ports, fall back to the fabric-wide minimum over bounded ports.
	inPorts := map[int]bool{}
	for _, p := range inc.Ports {
		inPorts[int(p)] = true
	}
	globalPort, globalMargin := -1, 0.0
	for i := range headrooms {
		ph := &headrooms[i]
		if !ph.Bounded || ph.Bounds.BacklogBytes < 0 {
			continue
		}
		if globalPort < 0 || ph.MarginBytes < globalMargin {
			globalPort, globalMargin = ph.Port, ph.MarginBytes
		}
		if inPorts[ph.Port] && (inc.MinMarginPort < 0 || ph.MarginBytes < inc.MinMarginBytes) {
			inc.MinMarginPort, inc.MinMarginBytes = ph.Port, ph.MarginBytes
		}
	}
	if inc.MinMarginPort < 0 {
		inc.MinMarginPort, inc.MinMarginBytes = globalPort, globalMargin
	}

	switch {
	case len(inc.Faults) > 0:
		inc.Verdict = VerdictInjectedFault
		inc.Reason = fmt.Sprintf("overlaps injected fault window(s): %s", strings.Join(inc.Faults, "; "))
	case len(victimViolated) > 0:
		inc.Verdict = VerdictSelfInflicted
		for t, vms := range victimViolated {
			sort.Ints(vms)
			inc.CulpritTenants = append(inc.CulpritTenants, t)
			inc.CulpritVMs = append(inc.CulpritVMs, vms...)
		}
		sort.Ints(inc.CulpritTenants)
		sort.Ints(inc.CulpritVMs)
		inc.Reason = fmt.Sprintf("victim tenant(s) %v broke their own arrival envelope via VM(s) %v — guarantee void",
			inc.CulpritTenants, inc.CulpritVMs)
	case len(neighborViolated) > 0:
		inc.Verdict = VerdictNeighborInterference
		for t, vms := range neighborViolated {
			sort.Ints(vms)
			inc.CulpritTenants = append(inc.CulpritTenants, t)
			inc.CulpritVMs = append(inc.CulpritVMs, vms...)
		}
		sort.Ints(inc.CulpritTenants)
		sort.Ints(inc.CulpritVMs)
		inc.Reason = fmt.Sprintf("victim conformant; neighbor tenant(s) %v violated their envelope via VM(s) %v",
			inc.CulpritTenants, inc.CulpritVMs)
		if inc.MinMarginPort >= 0 && inc.MinMarginBytes <= 0 {
			inc.Reason += fmt.Sprintf("; port %s margin went negative (%.1f KB)",
				c.portName(int32(inc.MinMarginPort)), inc.MinMarginBytes/1e3)
		}
	case allCovered(victim, covered):
		inc.Verdict = VerdictBoundBreach
		inc.Page = true
		inc.Reason = "every tracked envelope conformant, no fault active, yet d was missed — the admission bound is falsified"
		if inc.MinMarginPort >= 0 {
			inc.Reason += fmt.Sprintf(" (tightest margin: port %s, %.1f KB)",
				c.portName(int32(inc.MinMarginPort)), inc.MinMarginBytes/1e3)
		}
	default:
		inc.Verdict = VerdictUnexplained
		inc.Reason = fmt.Sprintf("no arrival-envelope evidence for victim tenant(s) %v — rerun with introspection attached", inc.Tenants)
	}
	inc.Timeline = append(inc.Timeline, TimelineEntry{
		TimeNs: inc.EndNs, Kind: "evidence",
		Detail: fmt.Sprintf("verdict %s: %s", inc.Verdict, inc.Reason),
	})
}

func (c *correlation) portName(p int32) string {
	if p < 0 {
		return "(unattributed)"
	}
	return obs.PortName(c.in.Ports, p)
}

func allCovered(victim, covered map[int]bool) bool {
	if len(victim) == 0 {
		return false
	}
	for t := range victim {
		if !covered[t] {
			return false
		}
	}
	return true
}

func sortedInts(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedPorts(m map[int32]bool) []int32 {
	if len(m) == 0 {
		return nil
	}
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// vmName renders a VM id, mapping the -1 sentinel to infrastructure
// traffic (raw packets outside any tenant's pacer, e.g. resync).
func vmName(vm int) string {
	if vm < 0 {
		return "(infra)"
	}
	return fmt.Sprintf("vm%d", vm)
}
