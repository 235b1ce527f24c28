package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunSoakShortIsClean(t *testing.T) {
	p := DefaultSoakParams()
	p.Duration = 400 * time.Millisecond
	p.Dir = t.TempDir()
	meta := &obs.RunMeta{Tool: "soak-test", Seed: int64(p.Seed)}
	res, err := RunSoak(p, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("soak violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.Crashes < 3 {
		t.Fatalf("only %d crash cycles in %v", res.Crashes, p.Duration)
	}
	if res.Mutations < uint64(res.Crashes) {
		t.Fatalf("mutations %d < crashes %d", res.Mutations, res.Crashes)
	}
	if res.Places == 0 || res.Removes == 0 {
		t.Fatalf("churn too one-sided: %+v", res)
	}
	if res.Meta == nil || res.Meta.Tool != "soak-test" {
		t.Fatal("RunMeta not stamped on the soak result")
	}
	out := res.Render()
	if !strings.Contains(out, "verdict: OK") {
		t.Fatalf("render verdict:\n%s", out)
	}

	// The report file round-trips with its provenance.
	path := filepath.Join(t.TempDir(), "soak.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"tool": "soak-test"`) {
		t.Fatalf("soak report missing RunMeta:\n%s", b)
	}
}

func TestRunSoakMaxCrashesStopsEarly(t *testing.T) {
	p := DefaultSoakParams()
	p.Duration = 30 * time.Second // the cap, not the clock, must stop it
	p.MaxCrashes = 2
	p.Dir = t.TempDir()
	start := time.Now()
	res, err := RunSoak(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", res.Crashes)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("MaxCrashes did not stop the soak")
	}
}

// Two soaks of one seed and one cycle count churn, crash and recover
// identically, so the (seed, cycle) a red soak prints reproduces it.
func TestRunSoakByCountIsDeterministic(t *testing.T) {
	type outcome struct {
		crashes, places, rejects, removes, recovers int
		mutations                                   uint64
		tornTails, replayed, snapshotRestores       int
		truncated                                   int64
	}
	run := func() outcome {
		p := DefaultSoakParams()
		p.Duration = time.Minute // a safety timeout: the count stops it
		p.MaxCrashes = 25
		p.Dir = t.TempDir()
		res, err := RunSoak(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 || res.Crashes != p.MaxCrashes {
			t.Fatalf("soak ran %d of %d cycles, violations %q", res.Crashes, p.MaxCrashes, res.Violations)
		}
		return outcome{res.Crashes, res.Places, res.Rejects, res.Removes, res.Recovers,
			res.Mutations, res.TornTails, res.ReplayedRecords, res.SnapshotRestores, res.TruncatedBytes}
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed and count, different soaks:\n%+v\n%+v", a, b)
	}
}
