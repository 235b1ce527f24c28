package durable

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestOpenOldStore opens testdata/oldstore, a store that silo-place
// -wal wrote while placement still weighed per-server CPU and memory:
// its config.json carries the topology's CPUPerServer and
// MemoryPerServer and the placement MTUBytes keys, its snapshot's specs
// CPUPerVM and MemoryPerVM, and every place record of its segment two
// zero float64s after the fault domains. Recovery must come up with the
// admitted set, counters and port bounds pinned in oldstore.golden, and
// re-encoding the segment's records must give back its bytes.
func TestOpenOldStore(t *testing.T) {
	dir := copyStoreDir(t, filepath.Join("testdata", "oldstore"))
	cfg, _, _, err := LoadConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, found %v (%v)", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	res := scanRecords(seg)
	if res.torn || res.corrupt || res.validLen != int64(len(seg)) {
		t.Fatalf("segment scan: %+v of %d bytes", res, len(seg))
	}
	var again []byte
	for i := range res.records {
		again = appendRecord(again, res.records[i].Seq, &res.records[i].Mut)
	}
	if !bytes.Equal(again, seg) {
		t.Fatalf("re-encoded segment differs from the stored one:\n got %x\nwant %x", again, seg)
	}

	d, info, err := Open(dir, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot seq %d (%d tenants) + %d replayed, safe mode %v\n",
		info.SnapshotSeq, info.SnapshotTenants, info.ReplayedRecords, info.SafeMode)
	fmt.Fprintf(&b, "seq %d accepted %d rejected %d\n", d.Seq(), d.Accepted(), d.Rejected())
	for _, id := range d.AdmittedIDs() {
		pl, _ := d.Placement(id)
		fmt.Fprintf(&b, "tenant %d %q %d VMs fd %d %+v on %v\n",
			id, pl.Spec.Name, pl.Spec.VMs, pl.Spec.FaultDomains, pl.Spec.Guarantee, pl.Servers)
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		if q := d.QueueBound(pid); q != 0 {
			fmt.Fprintf(&b, "port %d bound %x\n", pid, q)
		}
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "oldstore.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("recovered state differs from %s:\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
}
