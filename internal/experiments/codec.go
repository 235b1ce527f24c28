package experiments

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/tenant"
)

// A scenario file is a JSON array of Scenarios, the named lines of one
// figure setup, with keys spelled as the Go fields are and zero-valued
// fields of this package's types left out. Enums are written by name:
// the scheme as core.Scheme.String spells it, the hose, pattern,
// driver and class kinds by the lower-case names below. Numbers are in
// the fields' own units, so each decodes to exactly the float64 the Go
// constant gave. The committed setups live in scenarios/. The canonical
// form is what json.MarshalIndent(lines, "", "  ") writes, with each
// array of numbers on one line and a final newline;
// TestScenarioFilesAreCanonical holds every file to it.

//go:embed scenarios/*.json
var scenarioFiles embed.FS

// Scenarios decodes the committed setup scenarios/<name>.json.
func Scenarios(name string) ([]Scenario, error) {
	b, err := scenarioFiles.ReadFile("scenarios/" + name + ".json")
	if err != nil {
		return nil, err
	}
	return decodeScenarios(b)
}

// decodeScenarios reads a scenario file strictly: an unknown field, an
// unknown enum name or anything after the array fails it. It does not
// validate; Build does.
func decodeScenarios(b []byte) ([]Scenario, error) {
	d := strictDecoder(b)
	var scs []Scenario
	if err := d.Decode(&scs); err != nil {
		return nil, err
	}
	if _, err := d.Token(); err != io.EOF {
		return nil, errors.New("scenario file: data after the array")
	}
	return scs, nil
}

func strictDecoder(b []byte) *json.Decoder {
	d := json.NewDecoder(bytes.NewReader(b))
	d.DisallowUnknownFields()
	return d
}

// specFile is tenant.Spec as a scenario file spells it: the class by
// name. tenant.Spec itself keeps its numeric class, which the durable
// store's snapshots hold.
type specFile struct {
	ID           int
	Name         string
	VMs          int
	Class        className `json:",omitempty"`
	Guarantee    tenant.Guarantee
	FaultDomains int `json:",omitempty"`
}

// plainTenant is Tenant without its JSON methods.
type plainTenant Tenant

// tenantFile is a Tenant on the wire: its spec as specFile.
type tenantFile struct {
	Spec specFile
	plainTenant
}

// MarshalJSON writes the tenant with its spec's class by name.
func (t Tenant) MarshalJSON() ([]byte, error) {
	s := t.Spec
	return json.Marshal(tenantFile{
		Spec:        specFile{s.ID, s.Name, s.VMs, className(s.Class), s.Guarantee, s.FaultDomains},
		plainTenant: plainTenant(t),
	})
}

// UnmarshalJSON reads a tenant as MarshalJSON writes it, refusing
// unknown fields.
func (t *Tenant) UnmarshalJSON(b []byte) error {
	var w tenantFile
	if err := strictDecoder(b).Decode(&w); err != nil {
		return err
	}
	s := w.Spec
	*t = Tenant(w.plainTenant)
	t.Spec = tenant.Spec{ID: s.ID, Name: s.Name, VMs: s.VMs, Class: tenant.Class(s.Class),
		Guarantee: s.Guarantee, FaultDomains: s.FaultDomains}
	return nil
}

// The enum names a scenario file uses, indexed by kind.
var (
	hoseNames    = []string{"none", "fair-share", "peak", "dynamic"}
	patternNames = []string{"none", "all-to-one", "all-to-all"}
	driverNames  = []string{"none", "oldi", "shuffle", "burst", "etc"}
	classNames   = []string{"guaranteed", "best-effort"}
)

// parseKind returns the kind whose name is b.
func parseKind[K ~int](what string, names []string, b []byte) (K, error) {
	for k, name := range names {
		if name == string(b) {
			return K(k), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", what, b)
}

// className is tenant.Class by name.
type className tenant.Class

func (k HoseKind) MarshalText() ([]byte, error)    { return []byte(hoseNames[k]), nil }
func (k PatternKind) MarshalText() ([]byte, error) { return []byte(patternNames[k]), nil }
func (k DriverKind) MarshalText() ([]byte, error)  { return []byte(driverNames[k]), nil }
func (k className) MarshalText() ([]byte, error)   { return []byte(classNames[k]), nil }

func (k *HoseKind) UnmarshalText(b []byte) (err error) {
	*k, err = parseKind[HoseKind]("hose kind", hoseNames, b)
	return err
}

func (k *PatternKind) UnmarshalText(b []byte) (err error) {
	*k, err = parseKind[PatternKind]("pattern", patternNames, b)
	return err
}

func (k *DriverKind) UnmarshalText(b []byte) (err error) {
	*k, err = parseKind[DriverKind]("driver", driverNames, b)
	return err
}

func (k *className) UnmarshalText(b []byte) (err error) {
	*k, err = parseKind[className]("class", classNames, b)
	return err
}

// Validate refuses a scenario Build would crash on or report falsely
// about, naming the field as a scenario file spells it
// ("Tenants[1].Servers[4]: ..."). What admission control decides — a
// tenant too big for the tree, a bound no layout meets — is not its
// business: such a tenant is rejected at run time.
func (sc Scenario) Validate() error {
	if err := sc.Topology.Validate(); err != nil {
		return fmt.Errorf("Topology: %w", err)
	}
	if (sc.Planes.Windows || sc.Planes.Incidents) && !sc.Planes.Audit {
		// Both read the auditor; without it they report a clean run.
		return errors.New("Planes: Windows and Incidents read the audit, and Audit is off")
	}
	servers := sc.Topology.Pods * sc.Topology.RacksPerPod * sc.Topology.ServersPerRack
	// The automatic VM ids, [VMBase, autoEnd): each tenant without a base
	// of its own takes the next VMs + VMGap. A redeployed tenant takes
	// fresh ones, so under Redeploy they have no end.
	autoEnd := math.MaxInt
	if !sc.Redeploy {
		autoEnd = sc.VMBase
		for _, t := range sc.Tenants {
			if t.VMBase == 0 {
				autoEnd += t.Spec.VMs + sc.VMGap
			}
		}
	}
	fixed := map[int]int{} // VMs the fixed layouts put on each server
	for i, t := range sc.Tenants {
		if err := t.validate(servers); err != nil {
			return fmt.Errorf("Tenants[%d].%w", i, err)
		}
		// Two tenants under one ID, or on overlapping VM ids, overwrite
		// each other's entries in the controller's maps.
		for j, u := range sc.Tenants[:i] {
			if u.Spec.ID == t.Spec.ID {
				return fmt.Errorf("Tenants[%d].Spec.ID: %d is Tenants[%d]'s", i, t.Spec.ID, j)
			}
			if t.VMBase != 0 && u.VMBase != 0 && t.VMBase < u.VMBase+u.Spec.VMs && u.VMBase < t.VMBase+t.Spec.VMs {
				return fmt.Errorf("Tenants[%d].VMBase: VMs %d-%d overlap Tenants[%d]'s", i, t.VMBase, t.VMBase+t.Spec.VMs-1, j)
			}
		}
		if t.VMBase != 0 && t.VMBase < autoEnd && sc.VMBase < t.VMBase+t.Spec.VMs {
			return fmt.Errorf("Tenants[%d].VMBase: VMs %d-%d meet the automatic ids from %d", i, t.VMBase, t.VMBase+t.Spec.VMs-1, sc.VMBase)
		}
		// The placer never sees a fixed layout, so it never counts its
		// slots.
		for _, s := range t.Servers {
			if fixed[s]++; fixed[s] > sc.Topology.SlotsPerServer {
				return fmt.Errorf("Tenants[%d].Servers: the fixed layouts put %d VMs on server %d, which has %d slots", i, fixed[s], s, sc.Topology.SlotsPerServer)
			}
		}
	}
	return nil
}

// validate checks one tenant against a tree of the given server count.
func (t Tenant) validate(servers int) error {
	if err := t.Spec.Validate(); err != nil {
		return fmt.Errorf("Spec: %w", err)
	}
	// A fixed layout skips the placer: its length and servers are
	// checked here, its slots by Scenario.Validate.
	if t.Servers != nil && len(t.Servers) != t.Spec.VMs {
		return fmt.Errorf("Servers: %d servers for %d VMs", len(t.Servers), t.Spec.VMs)
	}
	for k, s := range t.Servers {
		if s < 0 || s >= servers {
			return fmt.Errorf("Servers[%d]: server %d, and the tree has %d", k, s, servers)
		}
	}
	h, d := t.Hose, t.Driver
	switch {
	case (h.Kind == HoseFairShare || h.Kind == HosePeak) && h.Pattern == PatternNone:
		return errors.New("Hose.Pattern: a static hose needs one")
	case h.Kind == HoseDynamic && h.EpochNs <= 0:
		return errors.New("Hose.EpochNs: the dynamic loop needs a positive epoch")
	case d.Kind != DriverNone && d.Kind != DriverETC && (d.MsgBytes <= 0 || d.MsgBytes > math.MaxInt32):
		return fmt.Errorf("Driver.MsgBytes: %d, want 1 to 2^31-1", d.MsgBytes)
	case d.Kind == DriverOLDI && (t.Spec.VMs < 2 || !(t.Spec.Guarantee.BandwidthBps > 0)):
		// Its rounds are paced by the aggregator's hose: no senders or no
		// bandwidth leaves a zero or infinite period.
		return errors.New("Driver.Kind: oldi needs two VMs and a positive BandwidthBps")
	case d.Kind == DriverETC && !(d.TargetBps > 0):
		return errors.New("Driver.TargetBps: etc needs a positive load")
	case d.RandomPhase && d.PeriodNs <= 0:
		return errors.New("Driver.RandomPhase: needs a positive PeriodNs")
	}
	return nil
}
