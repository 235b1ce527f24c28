package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

const (
	mbps = 1e6 / 8
	gbps = 1e9 / 8
)

func smallTree() *topology.Tree {
	tree, err := topology.New(topology.Config{
		Pods:           2,
		RacksPerPod:    2,
		ServersPerRack: 4,
		SlotsPerServer: 4,
		LinkBps:        10 * gbps,
		BufferBytes:    312e3,
		NICBufferBytes: 62.5e3,
		RackOversub:    2,
		PodOversub:     2,
	})
	if err != nil {
		panic(err)
	}
	return tree
}

// churnSpec deterministically derives a feasible-ish tenant spec from
// an RNG stream, mirroring the placement churn property tests.
func churnSpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 1 + rng.Intn(6)
	fd := 1 + rng.Intn(2)
	if fd > vms {
		fd = vms
	}
	return tenant.Spec{
		ID:   id,
		Name: fmt.Sprintf("t%d", id),
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(10)) * 100 * mbps,
			BurstBytes:   float64(1+rng.Intn(10)) * 3e3,
			DelayBound:   float64(rng.Intn(3)) * 1e-3,
			BurstRateBps: 10 * gbps,
		},
		FaultDomains: fd,
	}
}

// ctlPlane is the mutation surface shared by the durable manager and
// the bare placement manager, so one script can drive either.
type ctlPlane interface {
	Place(tenant.Spec) (*tenant.Placement, error)
	Remove(int) error
	Recover([]int, []int) (*placement.RecoveryReport, error)
	RestoreServers(...int) error
	AdmittedIDs() []int
	ServerFailed(int) bool
	Accepted() int
	Rejected() int
	FailedServerIDs() []int
	Placement(int) (*tenant.Placement, bool)
	VerifyInvariants() error
}

var (
	_ ctlPlane = (*Manager)(nil)
	_ ctlPlane = (*placement.Manager)(nil)
)

// scriptOp is one deterministic churn step. Ops that need an existing
// tenant or server resolve it at execution time from the target's own
// state, which is identical across targets as long as their decision
// streams are (the property under test).
type scriptOp struct {
	kind int // 0 place, 1 remove, 2 fail+recover, 3 restore-all
	spec tenant.Spec
	pick int // index selector for remove / server selector for fail
}

// genScript derives a deterministic churn script from a seed.
func genScript(seed uint64, steps int) []scriptOp {
	rng := stats.NewRand(seed)
	ops := make([]scriptOp, 0, steps)
	nextID := 1
	for i := 0; i < steps; i++ {
		r := rng.Float64()
		switch {
		case r < 0.55:
			ops = append(ops, scriptOp{kind: 0, spec: churnSpec(rng, nextID)})
			nextID++
		case r < 0.80:
			ops = append(ops, scriptOp{kind: 1, pick: rng.Intn(1 << 20)})
		case r < 0.93:
			ops = append(ops, scriptOp{kind: 2, pick: rng.Intn(1 << 20)})
		default:
			ops = append(ops, scriptOp{kind: 3})
		}
	}
	return ops
}

// applyOp executes one script op against a target.
func applyOp(m ctlPlane, op scriptOp, servers int) {
	switch op.kind {
	case 0:
		m.Place(op.spec)
	case 1:
		ids := m.AdmittedIDs()
		if len(ids) == 0 {
			return
		}
		m.Remove(ids[op.pick%len(ids)])
	case 2:
		s := op.pick % servers
		if m.ServerFailed(s) {
			return
		}
		m.Recover([]int{s}, nil)
	case 3:
		failed := m.FailedServerIDs()
		if len(failed) > 0 {
			m.RestoreServers(failed...)
		}
	}
}

// probeSpecs is a fixed post-recovery request stream: a mix of
// admissible and inadmissible requests whose decisions (including
// rejection error text) must match byte-for-byte across managers.
func probeSpecs() []tenant.Spec {
	base := 100000
	return []tenant.Spec{
		{ID: base + 1, Name: "probe1", VMs: 2, Guarantee: tenant.Guarantee{
			BandwidthBps: 200 * mbps, BurstBytes: 6e3, DelayBound: 1e-3, BurstRateBps: 10 * gbps}},
		{ID: base + 2, Name: "probe2", VMs: 4, FaultDomains: 2, Guarantee: tenant.Guarantee{
			BandwidthBps: 500 * mbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps}},
		{ID: base + 3, Name: "probe3", VMs: 9, Guarantee: tenant.Guarantee{
			BandwidthBps: 1000 * mbps, BurstBytes: 30e3, DelayBound: 2e-3, BurstRateBps: 10 * gbps}},
		{ID: base + 4, Name: "probe4", VMs: 1, Guarantee: tenant.Guarantee{
			BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}},
		{ID: base + 5, Name: "probe5", VMs: 64, Guarantee: tenant.Guarantee{
			BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}},
	}
}

// signature renders a manager's full observable state plus its
// decisions on the probe stream. Probing mutates the manager, so call
// it only once per instance, as its final act.
func signature(m ctlPlane) string {
	var b strings.Builder
	fmt.Fprintf(&b, "accepted=%d rejected=%d failed=%v\n", m.Accepted(), m.Rejected(), m.FailedServerIDs())
	for _, id := range m.AdmittedIDs() {
		pl, _ := m.Placement(id)
		fmt.Fprintf(&b, "tenant %d %q vms=%d g=%+v fd=%d servers=%v\n",
			pl.Spec.ID, pl.Spec.Name, pl.Spec.VMs, pl.Spec.Guarantee, pl.Spec.FaultDomains, pl.Servers)
	}
	for _, spec := range probeSpecs() {
		pl, err := m.Place(spec)
		if err != nil {
			fmt.Fprintf(&b, "probe %d: err=%v\n", spec.ID, err)
		} else {
			fmt.Fprintf(&b, "probe %d: servers=%v\n", spec.ID, pl.Servers)
		}
	}
	return b.String()
}

// openTest opens a durable store with snapshots disabled and
// every-record sync (the crash tests' baseline configuration).
func openTest(t *testing.T, dir string, tree *topology.Tree) (*Manager, *RecoveryInfo) {
	t.Helper()
	d, info, err := Open(dir, tree, Options{SyncEvery: 1, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d, info
}

// TestPlaceAfterCloseFails: once the store is closed, the commit hook
// refuses every mutation, so Place fails with ErrLogFailed wrapping
// errStoreClosed and the manager's state does not move.
func TestPlaceAfterCloseFails(t *testing.T) {
	d, _ := openTest(t, t.TempDir(), smallTree())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pl, err := d.Place(churnSpec(stats.NewRand(1), 1))
	if pl != nil || !errors.Is(err, errStoreClosed) || !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("Place after Close = %v, %v; want ErrLogFailed wrapping errStoreClosed", pl, err)
	}
	if d.Seq() != 0 || len(d.AdmittedIDs()) != 0 {
		t.Errorf("a refused mutation moved the store: seq %d, admitted %v", d.Seq(), d.AdmittedIDs())
	}
}

func TestDurableMatchesBareManagerAndSurvivesReopen(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	d, info := openTest(t, dir, tree)
	if info.SnapshotSeq != 0 || info.ReplayedRecords != 0 || info.SafeMode {
		t.Fatalf("fresh store reported recovery work: %+v", info)
	}

	bare := placement.NewManager(tree, placement.Options{})
	script := genScript(0xfeed, 60)
	for _, op := range script {
		applyOp(d, op, tree.Servers())
		applyOp(bare, op, tree.Servers())
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatalf("durable invariants: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: replay must land on the same state and the same
	// subsequent decisions as the uncrashed bare manager.
	d2, info2 := openTest(t, dir, tree)
	if info2.SafeMode || info2.TornTail || info2.CorruptTail {
		t.Fatalf("clean reopen reported damage: %+v", info2)
	}
	if int(d2.Seq()) != info2.ReplayedRecords {
		t.Fatalf("seq %d != replayed %d", d2.Seq(), info2.ReplayedRecords)
	}
	if err := d2.VerifyInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
	if got, want := signature(d2), signature(bare); got != want {
		t.Fatalf("recovered state diverges from live twin:\n--- recovered\n%s--- twin\n%s", got, want)
	}
	d2.Close()
}

func TestCleanShutdownLosesNothing(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	// Large sync batches: records sit in the OS page cache until a
	// flush. Close must flush them, so a clean shutdown loses nothing.
	d, _, err := Open(dir, tree, Options{SyncEvery: 1 << 20, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(7)
	placed := 0
	for id := 1; id <= 20; id++ {
		if _, err := d.Place(churnSpec(rng, id)); err == nil {
			placed++
		}
	}
	wantSeq := d.Seq()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := scanWAL(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.torn || res.corrupt {
		t.Fatal("clean shutdown left a damaged tail")
	}
	if uint64(len(res.records)) != wantSeq {
		t.Fatalf("log has %d records, manager logged %d", len(res.records), wantSeq)
	}
	d2, info := openTest(t, dir, tree)
	defer d2.Close()
	if info.ReplayedRecords != int(wantSeq) || info.SafeMode {
		t.Fatalf("reopen after clean shutdown: %+v", info)
	}
	if len(d2.AdmittedIDs()) != placed {
		t.Fatalf("recovered %d tenants, placed %d", len(d2.AdmittedIDs()), placed)
	}
}

func TestSnapshotRotationAndRecovery(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	d, _, err := Open(dir, tree, Options{SyncEvery: 1, SnapshotEvery: 13})
	if err != nil {
		t.Fatal(err)
	}
	bare := placement.NewManager(tree, placement.Options{})
	script := genScript(0xabcd, 80)
	for _, op := range script {
		applyOp(d, op, tree.Servers())
		applyOp(bare, op, tree.Servers())
	}
	seq := d.Seq()
	// Crash without Close: at SyncEvery=1 every record is already
	// durable; the snapshot cadence must have rotated segments.
	snaps, _ := listSeqFiles(dir, "snapshot-", ".json")
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 live snapshot, have %v", snaps)
	}
	wals, _ := listSeqFiles(dir, "wal-", ".log")
	if len(wals) != 1 {
		t.Fatalf("want exactly 1 live segment after GC, have %v", wals)
	}
	d2, info := openTest(t, dir, tree)
	if info.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if info.SafeMode {
		t.Fatalf("unexpected safe mode: %+v", info)
	}
	if d2.Seq() != seq {
		t.Fatalf("recovered seq %d, want %d", d2.Seq(), seq)
	}
	if got, want := signature(d2), signature(bare); got != want {
		t.Fatalf("snapshot+tail recovery diverges from live twin:\n--- recovered\n%s--- twin\n%s", got, want)
	}
	d2.Close()
}

func TestStaleSnapshotGapEntersSafeMode(t *testing.T) {
	// The corrupt snapshot's covered history was GCed from the log, so
	// recovery has a gap it cannot bridge.
	dir, _ := gappedStore(t)
	d2, info := openTest(t, dir, smallTree())
	defer d2.Close()
	if !info.SeqGap || !info.SafeMode || !d2.SafeMode() {
		t.Fatalf("gapped recovery must enter safe mode: %+v", info)
	}
	if err := d2.VerifyInvariants(); err != nil {
		t.Fatalf("safe-mode state must still be internally consistent: %v", err)
	}
	// Safe mode: conservative — reject rather than risk overbooking.
	admitted, seq := d2.AdmittedIDs(), d2.Seq()
	if pl, err := d2.Place(churnSpec(stats.NewRand(9), 999)); pl != nil || err == nil || !strings.Contains(err.Error(), "safe mode") {
		t.Fatalf("safe-mode Place = %v, %v; want a refusal naming safe mode", pl, err)
	}
	if got := d2.AdmittedIDs(); !slices.Equal(got, admitted) || d2.Seq() != seq {
		t.Fatalf("a refused Place moved the store: admitted %v -> %v, seq %d -> %d", admitted, got, seq, d2.Seq())
	}
	// Removes still work.
	if ids := d2.AdmittedIDs(); len(ids) > 0 {
		if err := d2.Remove(ids[0]); err != nil {
			t.Fatalf("safe-mode Remove: %v", err)
		}
	}
}

func TestAppendRetriesRecoverTransientFailures(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	d, _, err := Open(dir, tree, Options{
		SyncEvery:     1,
		SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var slept int
	// White box: count backoff sleeps instead of burning wall clock.
	d.st.w.sleep = func(time.Duration) { slept++ }

	d.InjectAppendFailures(2) // first two attempts fail, third lands
	spec := tenant.Spec{ID: 1, Name: "retry", VMs: 1, Guarantee: tenant.Guarantee{
		BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}}
	if _, err := d.Place(spec); err != nil {
		t.Fatalf("Place with 2 transient failures: %v", err)
	}
	if slept != 2 {
		t.Fatalf("expected 2 backoff sleeps, saw %d", slept)
	}

	// Exhausted retries abort the mutation: not applied, not counted.
	d.InjectAppendFailures(100)
	_, err = d.Place(tenant.Spec{ID: 2, Name: "doomed", VMs: 1, Guarantee: tenant.Guarantee{
		BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}})
	if !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("exhausted retries: got %v, want ErrLogFailed", err)
	}
	d.st.w.failAppends = 0
	if _, ok := d.Placement(2); ok {
		t.Fatal("mutation applied despite log failure")
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatalf("invariants after aborted mutation: %v", err)
	}
}

// TestFailedSyncDoesNotResurrectAbortedCommit: a commit whose fsync
// runs out of retries is reported failed and its seq goes to the next
// commit, so its record must not stay in the log. Otherwise replay
// applies the aborted mutation and drops the acknowledged one that
// reused its seq as a duplicate.
func TestFailedSyncDoesNotResurrectAbortedCommit(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTest(t, dir, smallTree())
	defer d.Close()
	d.st.w.sleep = func(time.Duration) {}
	spec := func(id int) tenant.Spec {
		return tenant.Spec{ID: id, Name: fmt.Sprintf("t%d", id), VMs: 1, Guarantee: tenant.Guarantee{
			BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}}
	}
	d.InjectSyncFailures(100)
	if _, err := d.Place(spec(1)); !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("Place with failing fsyncs: got %v, want ErrLogFailed", err)
	}
	d.st.w.failSyncs = 0
	if _, err := d.Place(spec(2)); err != nil {
		t.Fatalf("Place after fsync healed: %v", err)
	}
	r, info := openTest(t, copyStoreDir(t, dir), smallTree())
	defer r.Close()
	if info.ReplayedRecords != 1 || info.SafeMode {
		t.Fatalf("reopen after an aborted commit: %+v", info)
	}
	if _, ok := r.Placement(1); ok {
		t.Fatal("replay resurrected the aborted tenant 1")
	}
	if got, want := signature(r), signature(d); got != want {
		t.Fatalf("recovered manager differs from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestUncuttableAbortRefusesLaterCommits: when the log cannot cut an
// aborted record off, every later commit fails with ErrLogFailed until
// the store is reopened, and reopening recovers the acknowledged state.
func TestUncuttableAbortRefusesLaterCommits(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTest(t, dir, smallTree())
	defer d.Close()
	d.st.w.sleep = func(time.Duration) {}
	spec := func(id int) tenant.Spec {
		return tenant.Spec{ID: id, Name: fmt.Sprintf("t%d", id), VMs: 1, Guarantee: tenant.Guarantee{
			BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}}
	}
	if _, err := d.Place(spec(1)); err != nil {
		t.Fatal(err)
	}
	// A read-only handle fails the write and the truncate alike.
	live := d.st.w.f
	ro, err := os.Open(live.Name())
	if err != nil {
		t.Fatal(err)
	}
	d.st.w.f = ro
	if _, err := d.Place(spec(2)); !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("Place on an unwritable log: got %v, want ErrLogFailed", err)
	}
	d.st.w.f = live
	ro.Close()
	if _, err := d.Place(spec(3)); !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("Place after an uncut abort: got %v, want ErrLogFailed", err)
	}
	if ids := d.AdmittedIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("admitted %v, want [1]", ids)
	}
	r, info := openTest(t, copyStoreDir(t, dir), smallTree())
	defer r.Close()
	if info.ReplayedRecords != 1 || info.SafeMode {
		t.Fatalf("reopen: %+v", info)
	}
	if _, err := r.Place(spec(3)); err != nil {
		t.Fatalf("Place after reopen: %v", err)
	}
}

// TestBackoffDelaysAreExponential: an append that keeps failing
// is tried four times, with 1, 2 and 4 ms between tries and no jitter.
func TestBackoffDelaysAreExponential(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	d, _, err := Open(dir, tree, Options{
		SyncEvery:     1,
		SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var delays []time.Duration
	d.st.w.sleep = func(dl time.Duration) { delays = append(delays, dl) }
	d.InjectAppendFailures(100)
	d.Place(tenant.Spec{ID: 1, Name: "x", VMs: 1, Guarantee: tenant.Guarantee{
		BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: 10 * gbps}})
	d.st.w.failAppends = 0
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if !slices.Equal(delays, want) {
		t.Fatalf("backoff delays %v, want %v", delays, want)
	}
}

func TestVoidMutatorLogFailureIsSurfaced(t *testing.T) {
	tree := smallTree()
	dir := t.TempDir()
	d, _ := openTest(t, dir, tree)
	defer d.Close()
	d.st.w.sleep = func(time.Duration) {}
	d.InjectAppendFailures(100)
	err := d.FailServers(3)
	d.st.w.failAppends = 0
	if !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("FailServers with a failing log returned %v, want ErrLogFailed", err)
	}
	if d.ServerFailed(3) {
		t.Fatal("FailServers applied despite log failure")
	}
	if err := d.FailServers(3); err != nil || !d.ServerFailed(3) {
		t.Fatalf("FailServers did not recover after log healed: %v", err)
	}
}

// TestRecoverAfterFailedRestore: a log failure is returned by the call
// it aborted and by no later one. A RestoreServers whose append failed
// must leave a later Recover, with the log healed, to relocate the
// tenant; were the failure kept and read after Recover had logged its
// removes, the tenant would be detached and never re-admitted.
func TestRecoverAfterFailedRestore(t *testing.T) {
	d, _ := openTest(t, t.TempDir(), smallTree())
	defer d.Close()
	d.st.w.sleep = func(time.Duration) {}
	spec := tenant.Spec{ID: 1, Name: "a", VMs: 2, FaultDomains: 2, Guarantee: tenant.Guarantee{
		BandwidthBps: 100 * mbps, BurstBytes: 3e3, BurstRateBps: gbps}}
	pl, err := d.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.InjectAppendFailures(100)
	err = d.RestoreServers(7)
	d.st.w.failAppends = 0
	if !errors.Is(err, placement.ErrLogFailed) {
		t.Fatalf("RestoreServers with a failing log returned %v, want ErrLogFailed", err)
	}
	rep, err := d.Recover([]int{pl.Servers[0]}, nil)
	if err != nil {
		t.Fatalf("Recover with a healed log: %v (admitted %v)", err, d.AdmittedIDs())
	}
	if len(rep.Affected) != 1 || rep.Affected[0].Verdict != placement.VerdictRelocated {
		t.Fatalf("report = %+v", rep)
	}
	if ids := d.AdmittedIDs(); len(ids) != 1 || ids[0] != spec.ID {
		t.Fatalf("admitted %v after recovery, want [%d]", ids, spec.ID)
	}
	if err := d.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsMismatchedTopology(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTest(t, dir, smallTree())
	d.Close()
	other, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, ServersPerRack: 4, SlotsPerServer: 4,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 2, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, other, Options{SnapshotEvery: -1}); err == nil {
		t.Fatal("Open against a different topology must fail")
	}
}

// A store written while placement.Options still had a Workers field
// carries it in config.json. The field is gone; such a store must still
// open, recover what it logged, and hand its config to offline tools.
func TestOpenStoreWithRetiredWorkersOption(t *testing.T) {
	dir := t.TempDir()
	tree := smallTree()
	d, _ := openTest(t, dir, tree)
	rng := stats.NewRand(5)
	for id := 1; id <= 12; id++ {
		d.Place(churnSpec(rng, id))
	}
	want := d.AdmittedIDs()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "config.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(b), `"placement": {`, `"placement": {"Workers": 4, `, 1)
	if old == string(b) {
		t.Fatalf("config.json has no placement object to put Workers in:\n%s", b)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, opts, _, err := LoadConfig(dir)
	if err != nil || cfg != tree.Config() || opts != (placement.Options{}) {
		t.Fatalf("LoadConfig: %+v %+v %v", cfg, opts, err)
	}
	r, _ := openTest(t, dir, tree)
	defer r.Close()
	if got := r.AdmittedIDs(); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("reopened store admits %v, want %v", got, want)
	}
}
