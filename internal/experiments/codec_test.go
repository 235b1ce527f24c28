package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// mustScenarios loads a committed scenario file.
func mustScenarios(t testing.TB, name string) []Scenario {
	t.Helper()
	scs, err := Scenarios(name)
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// drill is the failure drill's scenario.
func drill(t testing.TB) Scenario { return mustScenarios(t, "faultdrill")[0] }

// numberArray matches an array of numbers as json.MarshalIndent spreads
// it, one element per line.
var numberArray = regexp.MustCompile(`\[[-+.eE0-9,\s]+\]`)

// encodeScenarios writes scenario lines in a file's canonical form:
// json.MarshalIndent with two-space indents, each array of numbers on
// one line, and a final newline.
func encodeScenarios(scs []Scenario) ([]byte, error) {
	b, err := json.MarshalIndent(scs, "", "  ")
	if err != nil {
		return nil, err
	}
	b = numberArray.ReplaceAllFunc(b, func(m []byte) []byte {
		return []byte("[" + strings.Join(strings.Fields(string(m[1:len(m)-1])), " ") + "]")
	})
	return append(b, '\n'), nil
}

// TestScenarioFilesAreCanonical decodes every committed scenario file
// strictly, validates each line and re-encodes it: the bytes must come
// back unchanged, so a hand edit that does not round-trip fails (-update
// rewrites the files). Each file must also be named by the Go source of
// this package or silo-bench, the one program that loads them.
func TestScenarioFilesAreCanonical(t *testing.T) {
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenario files: %v", err)
	}
	testdata, _ := filepath.Glob("testdata/*.json")
	sources, _ := filepath.Glob("*.go")
	bench, _ := filepath.Glob("../../cmd/silo-bench/*.go")
	var src bytes.Buffer
	for _, f := range append(sources, bench...) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for _, path := range append(paths, testdata...) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scs, err := decodeScenarios(b)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for i, sc := range scs {
			if err := sc.Validate(); err != nil {
				t.Errorf("%s line %d (%s): %v", path, i, sc.Name, err)
			}
		}
		got, err := encodeScenarios(scs)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if !bytes.Equal(got, b) {
			t.Errorf("%s is not in canonical form (rerun with -update if intended):\n%s", path, firstDiff(string(got), string(b)))
		}
		name := `"` + path + `"` // testdata is read by path
		if dir, file := filepath.Split(path); dir == "scenarios/" {
			name = `"` + strings.TrimSuffix(file, ".json") + `"`
		}
		if !bytes.Contains(src.Bytes(), []byte(name)) {
			t.Errorf("%s: no runner or test loads it (no Go source names %s)", path, name)
		}
	}
}

// badInputBase is a valid two-tenant scenario file every row of
// TestBadScenarioInputs edits.
const badInputBase = `[{
  "Topology": {"Pods": 1, "RacksPerPod": 1, "ServersPerRack": 2, "SlotsPerServer": 4,
    "LinkBps": 1250000000, "BufferBytes": 312000, "NICBufferBytes": 62500, "RackOversub": 1, "PodOversub": 1},
  "Scheme": "Silo",
  "Tenants": [
    {"Spec": {"ID": 1, "Name": "a", "VMs": 2,
       "Guarantee": {"BandwidthBps": 1e8, "BurstBytes": 15000, "DelayBound": 0.001, "BurstRateBps": 1e9}},
     "VMBase": 2000,
     "Hose": {"Kind": "fair-share", "Pattern": "all-to-one"},
     "Driver": {"Kind": "burst", "MsgBytes": 5000}},
    {"Spec": {"ID": 2, "Name": "b", "VMs": 2,
       "Guarantee": {"BandwidthBps": 2e8, "BurstBytes": 15000, "DelayBound": 0.001, "BurstRateBps": 1e9}},
     "VMBase": 3000,
     "Hose": {"Kind": "peak", "Pattern": "all-to-all"},
     "Driver": {"Kind": "oldi", "MsgBytes": 3000}},
    {"Spec": {"ID": 3, "Name": "c", "VMs": 5,
       "Guarantee": {"BandwidthBps": 3e8, "BurstBytes": 15000, "DelayBound": 0.001, "BurstRateBps": 1e9}}}
  ],
  "VMBase": 1000,
  "HorizonNs": 1000000,
  "Planes": {"Audit": false}
}]`

// TestBadScenarioInputs is the one table of bad scenario files: each
// row edits the valid base once and names the error it must get, from
// the codec or from Validate. Every error the two return has a row.
func TestBadScenarioInputs(t *testing.T) {
	if _, err := Scenarios("fig"); err == nil {
		t.Error(`Scenarios("fig") found no error; there is no scenarios/fig.json`)
	}
	for _, c := range []struct {
		name, old, new, want string
	}{
		{"valid", "", "", ""},
		{"unknown field", `"Scheme"`, `"Bogus": 1, "Scheme"`, `unknown field "Bogus"`},
		{"unknown tenant field", `"VMBase": 2000`, `"VMbase2": 2000`, `unknown field "VMbase2"`},
		{"unknown spec field", `"ID": 1,`, `"ID": 1, "Tier": 2,`, `unknown field "Tier"`},
		{"unknown scheme", `"Silo"`, `"Sillo"`, `unknown scheme "Sillo"`},
		{"unknown hose kind", `"fair-share"`, `"fairshare"`, `unknown hose kind "fairshare"`},
		{"unknown pattern", `"all-to-one"`, `"one-to-all"`, `unknown pattern "one-to-all"`},
		{"unknown driver", `"burst"`, `"bursty"`, `unknown driver "bursty"`},
		{"unknown class", `"Name": "a",`, `"Name": "a", "Class": "gold",`, `unknown class "gold"`},
		{"trailing data", `}]`, `}] []`, "data after the array"},
		{"truncated", `}]`, `}`, "unexpected EOF"},
		{"topology", `"Pods": 1`, `"Pods": 0`, "Topology: topology: all element counts must be positive"},
		{"windows without audit", `"Audit": false`, `"Windows": true`, "Planes: Windows and Incidents read the audit"},
		{"incidents without audit", `"Audit": false`, `"Incidents": true`, "Planes: Windows and Incidents read the audit"},
		{"spec", `"VMs": 2,
       "Guarantee": {"BandwidthBps": 1e8`, `"VMs": 0,
       "Guarantee": {"BandwidthBps": 1e8`, `Tenants[0].Spec: tenant "a": VMs must be positive`},
		{"layout shorter than the tenant", `"VMBase": 3000,`, `"VMBase": 3000, "Servers": [1],`, "Tenants[1].Servers: 1 servers for 2 VMs"},
		{"layout off the tree", `"VMBase": 3000,`, `"VMBase": 3000, "Servers": [1, 2],`, "Tenants[1].Servers[1]: server 2, and the tree has 2"},
		{"negative server", `"VMBase": 3000,`, `"VMBase": 3000, "Servers": [-1, 0],`, "Tenants[1].Servers[0]: server -1"},
		{"repeated ID", `"ID": 2`, `"ID": 1`, "Tenants[1].Spec.ID: 1 is Tenants[0]'s"},
		{"overlapping VM ids", `"VMBase": 3000`, `"VMBase": 2001`, "Tenants[1].VMBase: VMs 2001-2002 overlap Tenants[0]'s"},
		{"VM ids meet the automatic ones", `"VMBase": 3000`, `"VMBase": 1002`, "Tenants[1].VMBase: VMs 1002-1003 meet the automatic ids from 1000"},
		{"VM ids meet redeployed ones", `"HorizonNs"`, `"Redeploy": true, "HorizonNs"`, "Tenants[0].VMBase: VMs 2000-2001 meet the automatic ids from 1000"},
		{"fixed layouts overbook a server", `1e9}}}`, `1e9}}, "Servers": [1, 1, 1, 1, 1]}`, "Tenants[2].Servers: the fixed layouts put 5 VMs on server 1, which has 4 slots"},
		{"static hose without pattern", `, "Pattern": "all-to-one"`, ``, "Tenants[0].Hose.Pattern: a static hose needs one"},
		{"dynamic hose without epoch", `"Kind": "peak"`, `"Kind": "dynamic"`, "Tenants[1].Hose.EpochNs"},
		{"empty message", `"MsgBytes": 5000`, `"MsgBytes": 0`, "Tenants[0].Driver.MsgBytes: 0, want 1 to 2^31-1"},
		{"oversized message", `"MsgBytes": 5000`, `"MsgBytes": 2147483648`, "Driver.MsgBytes"}, // json refuses it where int has 32 bits
		{"oldi alone", `"ID": 2, "Name": "b", "VMs": 2`, `"ID": 2, "Name": "b", "VMs": 1`, "Tenants[1].Driver.Kind: oldi needs two VMs"},
		{"oldi without bandwidth", `"BandwidthBps": 2e8`, `"BandwidthBps": 0`, "Tenants[1].Driver.Kind: oldi needs two VMs and a positive BandwidthBps"},
		{"etc without load", `"Kind": "oldi", "MsgBytes": 3000`, `"Kind": "etc"`, "Tenants[1].Driver.TargetBps"},
		{"random phase without period", `"MsgBytes": 5000`, `"MsgBytes": 5000, "RandomPhase": true`, "Tenants[0].Driver.RandomPhase"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if strings.Count(badInputBase, c.old) != 1 && c.old != "" {
				t.Fatalf("%q is not one place in the base", c.old)
			}
			scs, err := decodeScenarios([]byte(strings.Replace(badInputBase, c.old, c.new, 1)))
			if err == nil {
				err = scs[0].Validate()
			}
			if c.want == "" {
				if err != nil {
					t.Fatalf("the base is refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
			// Build refuses what Validate refuses.
			if err == nil || scs == nil {
				return
			}
			if _, berr := Build(scs[0], Env{}); berr == nil || berr.Error() != err.Error() {
				t.Errorf("Build: %v, want %v", berr, err)
			}
		})
	}
}

// randomScenario draws a scenario over every field, valid or not, from
// values a file can hold exactly: finite floats, valid UTF-8.
func randomScenario(rng *stats.Rand) Scenario {
	f := func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.Intn(80)-20) }
	i := func() int { return rng.Intn(1<<20) - 1000 }
	b := func() bool { return rng.Intn(2) == 1 }
	str := func() string {
		return string([]rune{'a', rune(rng.Intn(0x3000)), '"', rune(rng.Intn(0x10ffff-0xe000) + 0xe000)}[:rng.Intn(5)])
	}
	sc := Scenario{
		Name: str(),
		Topology: topology.Config{Pods: i(), RacksPerPod: i(), ServersPerRack: i(), SlotsPerServer: i(),
			LinkBps: f(), BufferBytes: f(), NICBufferBytes: f(), RackOversub: f(), PodOversub: f()},
		Scheme:    core.AllSchemes[rng.Intn(len(core.AllSchemes))],
		Seed:      rng.Uint64(),
		TargetVMs: i(), VMBase: i(), VMGap: i(),
		HorizonNs: int64(rng.Uint64()), DrainNs: int64(i()),
		Faults:   str(),
		Redeploy: b(), ResyncBytes: i(), ResyncSources: i(),
		Planes: Planes{Audit: b(), TraceSampleN: i(), Introspect: b(), Windows: b(), Incidents: b()},
	}
	for n := rng.Intn(4); n > 0; n-- {
		t := Tenant{
			Spec: tenant.Spec{ID: i(), Name: str(), VMs: i(), Class: tenant.Class(rng.Intn(2)),
				Guarantee:    tenant.Guarantee{BandwidthBps: f(), BurstBytes: f(), DelayBound: f(), BurstRateBps: f()},
				FaultDomains: i()},
			VMBase: i(), MinRTONs: int64(i()), AuditDelayBoundSec: f(),
			Hose: Hose{Kind: HoseKind(rng.Intn(len(hoseNames))), Pattern: PatternKind(rng.Intn(len(patternNames))), EpochNs: int64(i())},
			Driver: Driver{Kind: DriverKind(rng.Intn(len(driverNames))), MsgBytes: i(), SplitRand: b(),
				PeriodNs: int64(i()), RandomPhase: b(), RemoteOnly: b(), TargetBps: f()},
		}
		for k := rng.Intn(4); k > 0; k-- {
			t.Servers = append(t.Servers, i())
		}
		sc.Tenants = append(sc.Tenants, t)
	}
	return sc
}

// TestScenarioCodecRoundTripProperty: a random scenario encodes, decodes
// to a deeply equal one, and re-encodes to the same bytes.
func TestScenarioCodecRoundTripProperty(t *testing.T) {
	rng := stats.NewRand(uint64(time.Now().UnixNano()))
	for n := 0; n < 300; n++ {
		seed := rng.Uint64()
		sc := randomScenario(stats.NewRand(seed))
		b, err := encodeScenarios([]Scenario{sc})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := decodeScenarios(b)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, b)
		}
		if !reflect.DeepEqual(got, []Scenario{sc}) {
			t.Fatalf("seed %d: decoded %+v, want %+v", seed, got[0], sc)
		}
		if again, _ := encodeScenarios(got); !bytes.Equal(again, b) {
			t.Fatalf("seed %d: re-encoding moved bytes", seed)
		}
	}
}

// smallScenario draws a small scenario near the valid region: Validate
// refuses some of them.
func smallScenario(rng *stats.Rand) Scenario {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	sc := Scenario{
		Topology:  TenGbE(1, 1+rng.Intn(2), 1+rng.Intn(3), 1+rng.Intn(4), float64(1+rng.Intn(3)), 1),
		Scheme:    core.AllSchemes[rng.Intn(len(core.AllSchemes))],
		Seed:      rng.Uint64(),
		TargetVMs: pick(0, 0, 6),
		VMBase:    1000,
		VMGap:     rng.Intn(3),
		HorizonNs: int64(rng.Intn(2e6)),
		DrainNs:   int64(rng.Intn(2e6)),
		Planes:    Planes{Audit: rng.Intn(4) > 0, TraceSampleN: pick(0, 1, 7), Introspect: rng.Intn(2) == 1, Windows: rng.Intn(2) == 1, Incidents: rng.Intn(2) == 1},
	}
	if rng.Intn(3) == 0 {
		sc.Faults = "t=300us switch tor0 down; t=900us up"
		sc.Redeploy, sc.ResyncBytes, sc.ResyncSources = rng.Intn(2) == 1, 6000, 2
	}
	servers := sc.Topology.Pods * sc.Topology.RacksPerPod * sc.Topology.ServersPerRack
	for n := rng.Intn(4); n > 0; n-- {
		vms := pick(0, 1, 2, 3, 4, 6)
		t := Tenant{
			Spec: tenant.Spec{ID: 1 + rng.Intn(4), Name: fmt.Sprint("t", n), VMs: vms, Class: tenant.Class(pick(0, 0, 0, 1)),
				Guarantee: tenant.Guarantee{BandwidthBps: float64(pick(0, 1, 4)) * 0.1 * units.Gbps, BurstBytes: 15e3,
					DelayBound: float64(pick(0, 1, 3)) * 1e-3, BurstRateBps: 1 * units.Gbps},
				FaultDomains: pick(0, 0, 2)},
			MinRTONs:           int64(pick(0, 1e6)),
			AuditDelayBoundSec: float64(pick(0, 1)) * 200e-6,
			Hose:               Hose{Kind: HoseKind(rng.Intn(len(hoseNames))), Pattern: PatternKind(rng.Intn(len(patternNames))), EpochNs: int64(pick(0, 100e3, 1e6))},
			Driver: Driver{Kind: DriverKind(rng.Intn(len(driverNames))), MsgBytes: pick(0, 1500, 9000, 64e3), SplitRand: rng.Intn(2) == 1,
				PeriodNs: int64(pick(0, 200e3)), RandomPhase: rng.Intn(2) == 1, RemoteOnly: rng.Intn(2) == 1, TargetBps: float64(pick(0, 1)) * 0.1 * units.Gbps},
		}
		if rng.Intn(3) == 0 {
			t.VMBase = 1000 * pick(2, 3, 4)
		}
		if rng.Intn(3) == 0 {
			for k := 0; k < vms+pick(0, 0, 0, -1); k++ {
				t.Servers = append(t.Servers, rng.Intn(servers+pick(0, 0, 0, 1)))
			}
		}
		sc.Tenants = append(sc.Tenants, t)
	}
	return sc
}

// TestValidScenariosRunProperty: every small random scenario Validate
// accepts builds and runs to its horizon plus drain, and Finish
// harvests it.
func TestValidScenariosRunProperty(t *testing.T) {
	rng := stats.NewRand(uint64(time.Now().UnixNano()))
	ran := 0
	deadline := time.Now().Add(time.Second)
	for n := 0; n < 400 && time.Now().Before(deadline); n++ {
		seed := rng.Uint64()
		sc := smallScenario(stats.NewRand(seed))
		if sc.Validate() != nil {
			continue
		}
		run, err := Build(sc, Env{})
		if err != nil {
			t.Fatalf("seed %d: Validate accepts what Build refuses: %v", seed, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		run.Execute(ctx)
		cancel()
		run.Finish()
		if end := sc.HorizonNs + sc.DrainNs; run.Net.Sim.Now() != end {
			t.Fatalf("seed %d: the run stopped at %dns, want %dns", seed, run.Net.Sim.Now(), end)
		}
		ran++
	}
	if ran < 10 {
		t.Errorf("only %d scenarios passed Validate; the generator misses the valid region", ran)
	}
}
