package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// brokenPlacer fails every request with an error that is not a
// rejection.
type brokenPlacer struct{ err error }

func (p brokenPlacer) Place(tenant.Spec) (*tenant.Placement, error) { return nil, p.err }
func (brokenPlacer) Remove(int) error                               { return nil }
func (brokenPlacer) Name() string                                   { return "broken" }

func twoTenantScenario() Scenario {
	g := tenant.Guarantee{BandwidthBps: 0.25 * units.Gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * units.Gbps}
	return Scenario{
		Topology: TenGbE(1, 1, 4, 2, 1, 1), // 8 slots
		Scheme:   core.SchemeSilo,
		VMBase:   1000,
		Tenants: []Tenant{
			{Spec: tenant.Spec{ID: 7, Name: "too-big", VMs: 9, Guarantee: g}},
			{Spec: tenant.Spec{ID: 8, Name: "fits", VMs: 4, Guarantee: g},
				Hose:   Hose{Kind: HoseFairShare, Pattern: PatternAllToOne},
				Driver: Driver{Kind: DriverBurst, MsgBytes: 5000}},
		},
		DrainNs: 1e9,
	}
}

// Admission control turning a tenant down skips it; the run goes on
// with the rest, under the caller's IDs.
func TestRunScenarioSkipsRejectedTenant(t *testing.T) {
	run, err := RunScenario(twoTenantScenario(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rejected) != 1 || !strings.Contains(run.Rejected[0].Error(), "too-big") {
		t.Errorf("Rejected = %v, want one entry naming too-big", run.Rejected)
	}
	if len(run.Tenants) != 1 || run.Tenants[0].Handle.Spec.ID != 8 {
		t.Fatalf("admitted %d tenants", len(run.Tenants))
	}
	tr := run.Tenants[0]
	if tr.Messages != 3 || tr.LatencyUs.Len() != 3 {
		t.Errorf("burst sent %d, completed %d; want 3 and 3", tr.Messages, tr.LatencyUs.Len())
	}
	if id, ok := run.Ctl.TenantOfVM(1003); !ok || id != 8 {
		t.Errorf("TenantOfVM(1003) = %d, %v", id, ok)
	}
}

// A placement error that is not a rejection fails the build, wrapped
// with the tenant's name — it is not "try the next tenant".
func TestRunScenarioSurfacesPlacementError(t *testing.T) {
	sc := twoTenantScenario()
	tree, err := topology.New(sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("log device unavailable")
	_, err = RunScenario(sc, Env{Tree: tree, Placer: brokenPlacer{boom}})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "too-big") {
		t.Fatalf("err = %v, want %q wrapped with the tenant name", err, boom)
	}
	// The figure runners pass a failed build on.
	sc.Topology.Pods = 0
	if _, err := runComparison(sc); err == nil {
		t.Error("runComparison on an impossible tree returned no error")
	}
}

// A Scenario is plain data: no func anywhere inside it.
func TestScenarioIsPlainData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Map:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("Scenario", reflect.TypeOf(Scenario{}))
}
