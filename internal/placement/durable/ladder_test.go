package durable

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/tenant"
)

// copyStoreDir snapshots the store dir's current on-disk bytes into a
// fresh temp dir — what a machine that lost power at this instant
// would find (SyncEvery=1 means every logged record is already on
// "disk" when the append observer fires).
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(filepath.Join(dst, d.Name()), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// ladderScenario builds a store where tenant X (d=400µs, rack-scope)
// cannot be relocated at full guarantee after losing a server, but
// fits exactly one rung down (d×2=800µs reaches datacenter scope):
// X takes 4 slots, then 1-VM fillers pack the fabric until 3 free
// slots remain, so no rack can host X's 4 VMs after the detach.
func ladderScenario(t *testing.T, dir string) (*Manager, tenant.Spec, *tenant.Placement) {
	t.Helper()
	tree := smallTree()
	d, _ := openTest(t, dir, tree)
	x := tenant.Spec{
		ID: 1, Name: "x", VMs: 4, FaultDomains: 2,
		Guarantee: tenant.Guarantee{
			BandwidthBps: 50 * mbps, BurstBytes: 3e3,
			DelayBound: 400e-6, BurstRateBps: 10 * gbps,
		},
	}
	pl, err := d.Place(x)
	if err != nil {
		t.Fatalf("place X: %v", err)
	}
	totalSlots := tree.Servers() * 4
	fillers := totalSlots - x.VMs - 3
	for i := 0; i < fillers; i++ {
		spec := tenant.Spec{
			ID: 100 + i, Name: "fill", VMs: 1,
			Guarantee: tenant.Guarantee{
				BandwidthBps: 1 * mbps, BurstBytes: 1e3, BurstRateBps: 10 * gbps,
			},
		}
		if _, err := d.Place(spec); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	return d, x, pl
}

func TestRecoverLadderDegradesOneRung(t *testing.T) {
	d, x, pl := ladderScenario(t, t.TempDir())
	defer d.Close()
	report, err := d.Recover([]int{pl.Servers[0]}, nil)
	if err != nil {
		t.Fatalf("recover log error: %v", err)
	}
	// Fillers co-located on the failed server may relocate or evict;
	// the property under test is that X degrades exactly one rung.
	if report.Degraded != 1 {
		t.Fatalf("want exactly one degraded tenant, got %+v", report)
	}
	got, ok := d.Placement(x.ID)
	if !ok {
		t.Fatal("X lost")
	}
	if got.Spec.Guarantee.DelayBound != 800e-6 {
		t.Fatalf("X recovered at d=%v, want one rung (800µs)", got.Spec.Guarantee.DelayBound)
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLadderCrashBetweenAppendAndApply is the satellite-3 scenario: a
// crash lands after Recover's degraded re-placement record hits the
// WAL but before the in-memory apply. Recovery must admit X on exactly
// one rung — a double-degrade (replaying the rung AND re-running the
// ladder) or a lost tenant would both show up here.
func TestLadderCrashBetweenAppendAndApply(t *testing.T) {
	dir := t.TempDir()
	d, x, pl := ladderScenario(t, dir)
	defer d.Close()

	var crashDir string
	d.SetAppendObserver(func(rec Record) {
		// The rung re-placement record for X: logged, not yet applied.
		if rec.Mut.Op == placement.MutPlace && rec.Mut.Spec.ID == x.ID {
			if crashDir != "" {
				t.Errorf("X re-placed more than once (second at seq %d)", rec.Seq)
			}
			crashDir = copyStoreDir(t, dir)
		}
	})
	if _, err := d.Recover([]int{pl.Servers[0]}, nil); err != nil {
		t.Fatalf("recover log error: %v", err)
	}
	if crashDir == "" {
		t.Fatal("observer never saw X's rung re-placement record")
	}

	r, info := openTest(t, crashDir, smallTree())
	defer r.Close()
	if info.SafeMode {
		t.Fatalf("crash recovery entered safe mode: %+v", info)
	}
	if err := r.VerifyInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
	count := 0
	for _, id := range r.AdmittedIDs() {
		if id == x.ID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("X admitted %d times after crash recovery, want exactly 1", count)
	}
	got, _ := r.Placement(x.ID)
	if got.Spec.Guarantee.DelayBound != 800e-6 {
		t.Fatalf("X recovered at d=%v, want exactly one rung (800µs), no double-degrade",
			got.Spec.Guarantee.DelayBound)
	}
	if got.Spec.Guarantee.BandwidthBps != x.Guarantee.BandwidthBps {
		t.Fatalf("X's bandwidth changed: %v -> %v", x.Guarantee.BandwidthBps, got.Spec.Guarantee.BandwidthBps)
	}
	if len(got.Servers) != x.VMs {
		t.Fatalf("X has %d servers, want %d", len(got.Servers), x.VMs)
	}
	for _, s := range got.Servers {
		if s == pl.Servers[0] {
			t.Fatalf("X re-placed onto the failed server %d", s)
		}
		if r.ServerFailed(s) {
			t.Fatalf("X placed on failed server %d", s)
		}
	}
}

// TestLadderAbortsOnLogFailure: if the WAL dies between the ladder's
// rejected full-guarantee attempt and the rung append, Recover must
// abort with ErrLogFailed — leaving X out (its detach was logged) rather
// than applying an unlogged degrade that a later replay would lose.
func TestLadderAbortsOnLogFailure(t *testing.T) {
	dir := t.TempDir()
	d, x, pl := ladderScenario(t, dir)
	defer d.Close()
	d.st.w.sleep = func(time.Duration) {}

	d.SetAppendObserver(func(rec Record) {
		// The full-guarantee re-place failed (logged as a reject); the
		// next append is the rung placement — kill the log now.
		if rec.Mut.Op == placement.MutReject && rec.Mut.TenantID == x.ID {
			d.InjectAppendFailures(100)
		}
	})
	_, err := d.Recover([]int{pl.Servers[0]}, nil)
	d.st.w.failAppends = 0
	if !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("recover with dead log returned %v, want ErrLogFailed", err)
	}
	if _, ok := d.Placement(x.ID); ok {
		t.Fatal("X applied despite its rung record never landing in the log")
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatalf("aborted recovery left inconsistent state: %v", err)
	}
	// The log prefix is exactly what memory holds: a reopen agrees.
	d.st.w.sync()
	r, info := openTest(t, copyStoreDir(t, dir), smallTree())
	defer r.Close()
	if info.SafeMode {
		t.Fatalf("reopen after aborted recovery: %+v", info)
	}
	if _, ok := r.Placement(x.ID); ok {
		t.Fatal("replay resurrected X without a placement record")
	}
}
