package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/topology"
)

// errStoreClosed is what the commit hook returns once Close has run; the
// placement manager wraps it in ErrLogFailed, which is what callers
// branch on.
var errStoreClosed = errors.New("durable: store closed")

// Options tunes the durable store; the zero value syncs every append
// and snapshots every 1024 mutations.
type Options struct {
	// Placement configures the underlying manager.
	Placement placement.Options
	// SyncEvery batches fsyncs: the WAL is synced after this many
	// appended records (and always on a snapshot and on Close). 1 — the
	// default — syncs every record; larger values trade the tail of
	// acknowledged-but-unsynced mutations for throughput.
	SyncEvery int
	// SnapshotEvery writes a snapshot and rotates the WAL after this
	// many mutations (default 1024; negative disables snapshots).
	SnapshotEvery int
	// Meta stamps snapshots and the store config with run provenance.
	Meta *obs.RunMeta
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	return o
}

// storeConfig is the dir's config.json: enough to rebuild the
// topology and manager options offline (silo-inspect wal) and to
// refuse opening a store against a mismatched fabric.
type storeConfig struct {
	Meta      *obs.RunMeta      `json:"meta,omitempty"`
	Topology  topology.Config   `json:"topology"`
	Placement placement.Options `json:"placement"`
}

// RecoveryInfo reports what Open did to arrive at a live manager.
type RecoveryInfo struct {
	// SnapshotSeq is the mutation seq the loaded snapshot covered (0
	// when recovery started from an empty state).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotTenants is the admitted-set size restored from it.
	SnapshotTenants int `json:"snapshot_tenants"`
	// ReplayedRecords counts WAL records applied after the snapshot.
	ReplayedRecords int `json:"replayed_records"`
	// TruncatedBytes is the torn/corrupt tail length cut from the last
	// segment (0 when the log ended cleanly).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// TornTail/CorruptTail classify the damage: a clean prefix of a
	// record (crash mid-write) vs. a framed record failing CRC/parse.
	TornTail    bool `json:"torn_tail,omitempty"`
	CorruptTail bool `json:"corrupt_tail,omitempty"`
	// SeqGap reports that the log's records did not connect to the
	// recovered base state (stale or missing snapshot): recovery
	// applied what it could and entered safe mode.
	SeqGap bool `json:"seq_gap,omitempty"`
	// SafeMode reports the manager came up rejecting admissions.
	SafeMode bool `json:"safe_mode,omitempty"`
	// ReplayNs is the wall-clock cost of the whole recovery.
	ReplayNs int64 `json:"replay_ns"`
}

// Render summarizes the recovery one line at a time.
func (ri *RecoveryInfo) Render() string {
	mode := "normal"
	if ri.SafeMode {
		mode = "SAFE MODE"
	}
	tail := "clean"
	switch {
	case ri.CorruptTail:
		tail = fmt.Sprintf("corrupt tail (-%d B)", ri.TruncatedBytes)
	case ri.TornTail:
		tail = fmt.Sprintf("torn tail (-%d B)", ri.TruncatedBytes)
	}
	gap := ""
	if ri.SeqGap {
		gap = ", seq gap"
	}
	return fmt.Sprintf(
		"recovery: snapshot seq %d (%d tenants) + %d replayed records, %s%s, %.3f ms, %s",
		ri.SnapshotSeq, ri.SnapshotTenants, ri.ReplayedRecords, tail, gap,
		float64(ri.ReplayNs)/1e6, mode)
}

// store owns the dir: the live WAL segment, the mutation sequence and
// the snapshot cadence.
type store struct {
	dir  string
	opts Options
	tree *topology.Tree
	w    *wal
	// seq is the last sequence number appended (and, because appends
	// precede applies, an upper bound on applied state).
	seq uint64
	// sinceSnap counts mutations since the last snapshot.
	sinceSnap int
	safeMode  bool
	closed    bool
	// afterAppend is a test seam invoked after each record lands in
	// the file but before the mutation is applied — exactly the window
	// a crash-point test needs to capture.
	afterAppend func(rec Record)
}

// Open recovers (or initializes) the durable store at dir and returns
// a manager backed by it. The tree must match the one the store was
// created with; opts.Placement likewise configures the rebuilt
// manager and must match for replayed decisions to be meaningful.
// Recovery is Inspect's walk plus one repair: each damaged segment is
// cut back to its valid prefix. A seq gap brings the manager up in
// safe mode, and a corrupt snapshot stays on disk, so every later Open
// (and silo-inspect wal) sees the same gap.
func Open(dir string, tree *topology.Tree, opts Options) (*Manager, *RecoveryInfo, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := ensureConfig(dir, tree, opts); err != nil {
		return nil, nil, err
	}
	m := placement.NewManager(tree, opts.Placement)
	rep, err := walk(dir, m)
	if err != nil {
		return nil, nil, err
	}
	if rep.InvariantsErr != "" {
		return nil, nil, fmt.Errorf("durable: recovered state fails invariants: %s", rep.InvariantsErr)
	}
	info := &RecoveryInfo{
		SnapshotSeq: rep.BaseSnapshotSeq, ReplayedRecords: rep.ReplayedRecords,
		TruncatedBytes: rep.TruncatedBytes, TornTail: rep.TornTail, CorruptTail: rep.CorruptTail,
		SeqGap: rep.SeqGap, SafeMode: rep.SeqGap,
	}
	for _, s := range rep.Snapshots {
		if s.Valid {
			info.SnapshotTenants = s.Tenants // the last valid one is the base
		}
	}
	for _, s := range rep.Segments {
		if s.Torn || s.Corrupt {
			if err := os.Truncate(filepath.Join(dir, s.Name), s.ValidBytes); err != nil {
				return nil, nil, err
			}
		}
	}

	// Continue the last segment, or start a fresh one.
	segPath, segSize := filepath.Join(dir, walName(rep.FinalSeq+1)), int64(0)
	if n := len(rep.Segments); n > 0 {
		segPath, segSize = filepath.Join(dir, rep.Segments[n-1].Name), rep.Segments[n-1].ValidBytes
	}
	st := &store{dir: dir, opts: opts, tree: tree, seq: rep.FinalSeq, safeMode: rep.SeqGap}
	st.w, err = createWAL(segPath, segSize, opts.SyncEvery)
	if err != nil {
		return nil, nil, err
	}

	m.SetCommitHook(st.commit)
	info.ReplayNs = time.Since(start).Nanoseconds()
	return &Manager{Manager: m, st: st}, info, nil
}

// commit is the placement manager's write-ahead hook: log the
// mutation, then let the manager apply it.
func (st *store) commit(mut *placement.Mutation) error {
	if st.closed {
		return errStoreClosed
	}
	next := st.seq + 1
	if err := st.w.append(next, mut); err != nil {
		return err
	}
	st.seq = next
	st.sinceSnap++
	if st.afterAppend != nil {
		st.afterAppend(Record{Seq: next, Mut: *mut})
	}
	return nil
}

// snapshot persists the manager's current state, rotates the WAL and
// garbage-collects segments and snapshots the new one supersedes. The
// old segments are deleted only after the new snapshot has been read
// back and validated (inside writeSnapshot).
func (st *store) snapshot(m *placement.Manager) error {
	if err := st.w.sync(); err != nil {
		return err
	}
	state := captureState(m, st.seq)
	if _, err := writeSnapshot(st.dir, state, st.opts.Meta); err != nil {
		return err
	}
	// Rotate: further appends go to a fresh segment starting past the
	// snapshot.
	if err := st.w.close(); err != nil {
		return err
	}
	w, err := createWAL(filepath.Join(st.dir, walName(st.seq+1)), 0, st.opts.SyncEvery)
	if err != nil {
		return err
	}
	st.w = w
	st.sinceSnap = 0

	// GC: every fully covered segment and every older snapshot.
	if names, err := listSeqFiles(st.dir, "wal-", ".log"); err == nil {
		for _, name := range names {
			if seq, ok := parseSeqName(name, "wal-", ".log"); ok && seq <= st.seq {
				os.Remove(filepath.Join(st.dir, name))
			}
		}
	}
	if names, err := listSeqFiles(st.dir, "snapshot-", ".json"); err == nil {
		for _, name := range names {
			if seq, ok := parseSeqName(name, "snapshot-", ".json"); ok && seq < state.Seq {
				os.Remove(filepath.Join(st.dir, name))
			}
		}
	}
	syncDir(st.dir)
	return nil
}

// ensureConfig writes config.json on first open and verifies the
// topology on later ones — replaying a log against a different fabric
// would silently rewrite history.
func ensureConfig(dir string, tree *topology.Tree, opts Options) error {
	cfg, _, _, err := LoadConfig(dir)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(&storeConfig{
			Meta: opts.Meta, Topology: tree.Config(), Placement: opts.Placement,
		}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "config.json"), out, 0o644); err != nil {
			return err
		}
		syncDir(dir)
		return nil
	}
	if err != nil {
		return err
	}
	if cfg != tree.Config() {
		return fmt.Errorf("durable: store at %s was created for a different topology", dir)
	}
	return nil
}

// LoadConfig reads a store dir's config.json (topology + placement
// options), letting offline tools rebuild the tree the log was written
// against.
func LoadConfig(dir string) (topology.Config, placement.Options, *obs.RunMeta, error) {
	b, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return topology.Config{}, placement.Options{}, nil, err
	}
	var cfg storeConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		return topology.Config{}, placement.Options{}, nil, fmt.Errorf("durable: config.json: %w", err)
	}
	return cfg.Topology, cfg.Placement, cfg.Meta, nil
}

// DecodeRecords decodes records from an in-memory segment image (the
// fuzz tests and the soak harness's torn-write oracle use it).
func DecodeRecords(b []byte) ([]Record, int64, bool) {
	res := scanRecords(b)
	return res.records, res.validLen, res.torn || res.corrupt
}
