package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/stats"
)

// corruptNewestSnapshot flips one byte in the middle of the newest
// snapshot in dir and returns its name.
func corruptNewestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := listSeqFiles(dir, "snapshot-", ".json")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	name := snaps[len(snaps)-1]
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

// gappedStore writes 30 placements to a store that snapshots every 10
// mutations, corrupts the newest snapshot (the log it covered is gone)
// and returns the dir and the admitted set the store held.
func gappedStore(t *testing.T) (string, []int) {
	t.Helper()
	dir := t.TempDir()
	d, _, err := Open(dir, smallTree(), Options{SyncEvery: 1, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3)
	for id := 1; id <= 30; id++ {
		d.Place(churnSpec(rng, id))
	}
	admitted := d.AdmittedIDs()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(admitted) == 0 {
		t.Fatal("no tenant admitted")
	}
	corruptNewestSnapshot(t, dir)
	return dir, admitted
}

// inspectGap runs Inspect over dir and fails unless it reports the seq
// gap.
func inspectGap(t *testing.T, dir, when string) {
	t.Helper()
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SeqGap || rep.OK() {
		t.Fatalf("Inspect %s: seq gap %v, OK %v; want the SEQ GAP verdict:\n%s", when, rep.SeqGap, rep.OK(), rep.Render())
	}
}

// TestCorruptSnapshotKeepsSafeModeAcrossReopen: a corrupt newest
// snapshot is missing history, and it stays missing. Recovery leaves
// the file where it is, so the second Open and silo-inspect wal see the
// same gap the first Open saw, instead of a store that forgot every
// tenant the snapshot held and reads as healthy.
func TestCorruptSnapshotKeepsSafeModeAcrossReopen(t *testing.T) {
	dir, admitted := gappedStore(t)
	inspectGap(t, dir, "before the first Open")
	for i := 1; i <= 2; i++ {
		d, info := openTest(t, dir, smallTree())
		if !info.SafeMode || !d.SafeMode() {
			t.Fatalf("Open %d of a store that lost %d admitted tenants: %s", i, len(admitted), info.Render())
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		inspectGap(t, dir, fmt.Sprintf("after Open %d", i))
	}
}

// TestSafeModeTakesNoSnapshots: a store in safe mode keeps mutating
// (failure handling still works) but writes no snapshot. A snapshot of
// the gapped state would garbage-collect the corrupt one and make the
// next Open come up normal with the lost tenants forgotten.
func TestSafeModeTakesNoSnapshots(t *testing.T) {
	dir, _ := gappedStore(t)
	snaps, _ := listSeqFiles(dir, "snapshot-", ".json")
	d, _, err := Open(dir, smallTree(), Options{SyncEvery: 1, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !d.SafeMode() {
		t.Fatal("gapped store opened in normal mode")
	}
	for i := 0; i < 15; i++ {
		if err := d.FailServers(i % 4); err != nil {
			t.Fatalf("safe-mode FailServers: %v", err)
		}
		if err := d.RestoreServers(i % 4); err != nil {
			t.Fatalf("safe-mode RestoreServers: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := listSeqFiles(dir, "snapshot-", ".json"); !slices.Equal(got, snaps) {
		t.Fatalf("safe mode changed the snapshots: %v -> %v", snaps, got)
	}
	d2, info := openTest(t, dir, smallTree())
	defer d2.Close()
	if !info.SafeMode {
		t.Fatalf("reopen after 30 safe-mode mutations: %s", info.Render())
	}
	inspectGap(t, dir, "after the reopen")
}

// damageStore applies damage of the given kind to a closed store and
// names it: a torn (0) or corrupt (1) tail on the last segment, a
// dropped middle segment (2), or a corrupt newest snapshot (3).
func damageStore(t *testing.T, rng *stats.Rand, dir string, kind int) string {
	t.Helper()
	if kind == 3 {
		return "corrupt snapshot " + corruptNewestSnapshot(t, dir)
	}
	segs, err := listSeqFiles(dir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	res, err := scanWAL(last)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.records
	if len(recs) < 3 {
		t.Fatalf("last segment holds %d records, want at least 3", len(recs))
	}
	tail := recs[len(recs)-1]
	tailLen := len(appendRecord(nil, tail.Seq, &tail.Mut))
	switch kind {
	case 0:
		if err := os.Truncate(last, res.validLen-int64(1+rng.Intn(tailLen-1))); err != nil {
			t.Fatal(err)
		}
		return "torn tail"
	case 1:
		b, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-tailLen+recordHeaderLen+rng.Intn(tailLen-recordHeaderLen)] ^= 0x5a
		if err := os.WriteFile(last, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return "corrupt tail"
	}
	// Cut the last segment into three at random record boundaries,
	// named by their first seqs as rotation names them, and drop
	// the middle one.
	i := 1 + rng.Intn(len(recs)-2)
	j := i + 1 + rng.Intn(len(recs)-1-i)
	for _, part := range [][]Record{recs[:i], recs[j:]} {
		var b []byte
		for _, rec := range part {
			b = appendRecord(b, rec.Seq, &rec.Mut)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(part[0].Seq)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("dropped seqs %d..%d", recs[i].Seq, recs[j-1].Seq)
}

// TestRecoveryAgreementProperty: over random churn and random damage,
// Inspect run before Open predicts what Open does (the seq gap and safe
// mode, the final seq, the admitted set), and a second Open recovers
// what the first did.
func TestRecoveryAgreementProperty(t *testing.T) {
	tree := smallTree()
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRand(seed)
		dir := t.TempDir()
		snapEvery := -1
		if rng.Intn(2) == 0 {
			snapEvery = 5 + rng.Intn(20)
		}
		d, _, err := Open(dir, tree, Options{SyncEvery: 1, SnapshotEvery: snapEvery})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range genScript(seed, 20+rng.Intn(60)) {
			applyOp(d, op, tree.Servers())
		}
		// More records through the embedded manager, which takes no
		// snapshot: three give the last segment a tail to damage. A
		// snapshot to corrupt is taken last, with zero to two records
		// after it; with none, only the snapshot's seq tells recovery
		// that history is missing. The seeds cycle through every kind.
		kind, extra := int(seed%4), 3
		if kind == 3 {
			if err := d.st.snapshot(d.Manager); err != nil {
				t.Fatal(err)
			}
			extra = int(seed / 4 % 3)
		}
		for id := 1000; id < 1000+extra; id++ {
			d.Manager.Place(churnSpec(rng, id))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		damage := damageStore(t, rng, dir, kind)

		rep, err := Inspect(dir)
		if err != nil {
			t.Fatalf("seed %d, %s: Inspect: %v", seed, damage, err)
		}
		if rep.InvariantsErr != "" {
			// Replaying past a dropped segment can rebuild a state that
			// overbooks a port; then no Open may come up at all.
			for i := 1; i <= 2; i++ {
				if _, _, err := Open(dir, tree, Options{SyncEvery: 1, SnapshotEvery: snapEvery}); err == nil {
					t.Fatalf("seed %d, %s: Open %d recovered a state Inspect found broken: %s", seed, damage, i, rep.InvariantsErr)
				}
			}
			continue
		}
		var first []string
		for i := 1; i <= 2; i++ {
			d, info, err := Open(dir, tree, Options{SyncEvery: 1, SnapshotEvery: snapEvery})
			if err != nil {
				t.Fatalf("seed %d, %s: Open %d: %v", seed, damage, i, err)
			}
			got := []string{
				fmt.Sprintf("gap %v", info.SeqGap), fmt.Sprintf("safe %v", d.SafeMode()),
				fmt.Sprintf("seq %d", d.Seq()), fmt.Sprintf("admitted %v", d.AdmittedIDs()),
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				first = got
				want := []string{
					fmt.Sprintf("gap %v", rep.SeqGap), fmt.Sprintf("safe %v", rep.SeqGap),
					fmt.Sprintf("seq %d", rep.FinalSeq), fmt.Sprintf("admitted %v", rep.Admitted),
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: Open recovered %v, Inspect predicted %v", seed, damage, got, want)
				}
			} else if !slices.Equal(got, first) {
				t.Fatalf("seed %d, %s: second Open recovered %v, first %v", seed, damage, got, first)
			}
		}
	}
}
