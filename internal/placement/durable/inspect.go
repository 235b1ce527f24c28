package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/topology"
)

// SnapshotInfo describes one snapshot file found in a store dir.
type SnapshotInfo struct {
	Name      string `json:"name"`
	Seq       uint64 `json:"seq"`
	Tenants   int    `json:"tenants"`
	SizeBytes int64  `json:"size_bytes"`
	// Valid reports the snapshot parsed and passed its CRC; recovery
	// uses the newest valid one, and an invalid newest one is a seq gap.
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
}

// SegmentInfo describes one WAL segment file.
type SegmentInfo struct {
	Name      string `json:"name"`
	Records   int    `json:"records"`
	FirstSeq  uint64 `json:"first_seq,omitempty"`
	LastSeq   uint64 `json:"last_seq,omitempty"`
	SizeBytes int64  `json:"size_bytes"`
	// ValidBytes is the clean prefix; anything past it is a torn or
	// corrupt tail that Open truncates.
	ValidBytes int64 `json:"valid_bytes"`
	Torn       bool  `json:"torn,omitempty"`
	Corrupt    bool  `json:"corrupt,omitempty"`
}

// InspectReport is the result of a read-only walk over a store dir:
// what is on disk, whether it is damaged, and what state a recovery
// would rebuild from it.
type InspectReport struct {
	Dir       string          `json:"dir"`
	Meta      *obs.RunMeta    `json:"meta,omitempty"`
	Topology  topology.Config `json:"topology"`
	Snapshots []SnapshotInfo  `json:"snapshots"`
	Segments  []SegmentInfo   `json:"segments"`

	// Replay outcome (walk, which Open also runs): base snapshot seq,
	// records applied after it, the final seq, and whether the stream
	// connected without gaps.
	BaseSnapshotSeq uint64 `json:"base_snapshot_seq"`
	ReplayedRecords int    `json:"replayed_records"`
	FinalSeq        uint64 `json:"final_seq"`
	SeqGap          bool   `json:"seq_gap,omitempty"`
	TornTail        bool   `json:"torn_tail,omitempty"`
	CorruptTail     bool   `json:"corrupt_tail,omitempty"`
	TruncatedBytes  int64  `json:"truncated_bytes,omitempty"`

	// Recovered state summary.
	Accepted      int    `json:"accepted"`
	Rejected      int    `json:"rejected"`
	Admitted      []int  `json:"admitted,omitempty"`
	FailedServers []int  `json:"failed_servers,omitempty"`
	InvariantsErr string `json:"invariants_error,omitempty"`

	// Records holds every valid record across segments in replay order.
	Records []Record `json:"-"`
}

// OK reports whether a recovery from this dir would come up in normal
// mode with invariants intact.
func (r *InspectReport) OK() bool {
	return r.InvariantsErr == "" && !r.SeqGap
}

// Render formats the report for terminals.
func (r *InspectReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store %s\n", r.Dir)
	cfg := r.Topology
	fmt.Fprintf(&b, "  topology: %d pods x %d racks x %d servers x %d slots\n",
		cfg.Pods, cfg.RacksPerPod, cfg.ServersPerRack, cfg.SlotsPerServer)
	if r.Meta != nil && r.Meta.Tool != "" {
		fmt.Fprintf(&b, "  created by: %s\n", r.Meta.Tool)
	}
	for _, s := range r.Snapshots {
		status := "valid"
		if !s.Valid {
			status = "INVALID: " + s.Error
		}
		fmt.Fprintf(&b, "  snapshot %s  seq=%d tenants=%d %d B  %s\n",
			s.Name, s.Seq, s.Tenants, s.SizeBytes, status)
	}
	for _, s := range r.Segments {
		tail := "clean"
		switch {
		case s.Corrupt:
			tail = fmt.Sprintf("CORRUPT tail (-%d B)", s.SizeBytes-s.ValidBytes)
		case s.Torn:
			tail = fmt.Sprintf("torn tail (-%d B)", s.SizeBytes-s.ValidBytes)
		}
		span := "empty"
		if s.Records > 0 {
			span = fmt.Sprintf("seq %d..%d", s.FirstSeq, s.LastSeq)
		}
		fmt.Fprintf(&b, "  segment  %s  %d records (%s) %d B  %s\n",
			s.Name, s.Records, span, s.SizeBytes, tail)
	}
	fmt.Fprintf(&b, "  replay: snapshot seq %d + %d records -> seq %d, accepted=%d rejected=%d admitted=%d",
		r.BaseSnapshotSeq, r.ReplayedRecords, r.FinalSeq, r.Accepted, r.Rejected, len(r.Admitted))
	if len(r.FailedServers) > 0 {
		fmt.Fprintf(&b, " failed-servers=%v", r.FailedServers)
	}
	b.WriteByte('\n')
	switch {
	case r.InvariantsErr != "":
		fmt.Fprintf(&b, "  verdict: FAILED — recovered state violates invariants: %s\n", r.InvariantsErr)
	case r.SeqGap:
		fmt.Fprintf(&b, "  verdict: SEQ GAP — durable history is missing; recovery would enter safe mode\n")
	default:
		fmt.Fprintf(&b, "  verdict: OK — recovery would come up in normal mode\n")
	}
	return b.String()
}

// Inspect walks a store dir without modifying it: the same walk Open
// runs, without Open's one repair (truncating damaged tails), so it is
// safe to run against a live or quarantined store.
func Inspect(dir string) (*InspectReport, error) {
	cfg, popts, meta, err := LoadConfig(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %s: %w", dir, err)
	}
	tree, err := topology.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("durable: rebuilding topology: %w", err)
	}
	rep, err := walk(dir, placement.NewManager(tree, popts))
	if err != nil {
		return nil, err
	}
	rep.Meta, rep.Topology = meta, cfg
	return rep, nil
}

// walk is the one recovery algorithm, read-only: it validates every
// snapshot and segment in dir, restores m from the newest valid
// snapshot, replays the records past it through Apply, and verifies
// the invariants of the state it rebuilt. Missing history is a seq
// gap: a newest snapshot that fails validation, damage in a segment
// other than the last, or a record that does not follow the one before
// it. Past a gap the walk applies what it can, skipping a record that
// no longer makes sense (removing an unknown tenant, re-placing a
// duplicate) instead of failing.
func walk(dir string, m *placement.Manager) (*InspectReport, error) {
	rep := &InspectReport{Dir: dir}
	snapNames, err := listSeqFiles(dir, "snapshot-", ".json")
	if err != nil {
		return nil, err
	}
	var base *snapState
	for _, name := range snapNames {
		p := filepath.Join(dir, name)
		si := SnapshotInfo{Name: name}
		if fi, serr := os.Stat(p); serr == nil {
			si.SizeBytes = fi.Size()
		}
		st, rerr := readSnapshot(p)
		if rerr != nil {
			si.Error = rerr.Error()
		} else {
			si.Valid = true
			si.Seq = st.Seq
			si.Tenants = len(st.Tenants)
			base = st // names are in ascending seq order
		}
		rep.Snapshots = append(rep.Snapshots, si)
	}
	if base != nil {
		if err := restoreState(m, base); err != nil {
			return nil, err
		}
		rep.BaseSnapshotSeq = base.Seq
	}
	lastSeq := rep.BaseSnapshotSeq
	gap := len(snapNames) > 0 && !rep.Snapshots[len(snapNames)-1].Valid

	walNames, err := listSeqFiles(dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	for i, name := range walNames {
		p := filepath.Join(dir, name)
		res, err := scanWAL(p)
		if err != nil {
			return nil, err
		}
		si := SegmentInfo{
			Name: name, Records: len(res.records),
			ValidBytes: res.validLen, Torn: res.torn, Corrupt: res.corrupt,
		}
		if fi, serr := os.Stat(p); serr == nil {
			si.SizeBytes = fi.Size()
		}
		if len(res.records) > 0 {
			si.FirstSeq = res.records[0].Seq
			si.LastSeq = res.records[len(res.records)-1].Seq
		}
		rep.Segments = append(rep.Segments, si)
		if res.torn || res.corrupt {
			rep.TornTail = rep.TornTail || res.torn
			rep.CorruptTail = rep.CorruptTail || res.corrupt
			rep.TruncatedBytes += si.SizeBytes - res.validLen
			// Damage mid-history: acknowledged mutations past it are
			// lost, and the later segments replay best-effort.
			gap = gap || i != len(walNames)-1
		}
		for _, rec := range res.records {
			if rec.Seq <= lastSeq {
				continue // covered by the snapshot (or a duplicate)
			}
			gap = gap || rec.Seq != lastSeq+1
			if err := m.Apply(&rec.Mut); err != nil && !gap {
				return nil, err
			}
			lastSeq = rec.Seq
			rep.ReplayedRecords++
			rep.Records = append(rep.Records, rec)
		}
	}
	rep.FinalSeq = lastSeq
	rep.SeqGap = gap
	rep.Accepted = m.Accepted()
	rep.Rejected = m.Rejected()
	rep.Admitted = m.AdmittedIDs()
	rep.FailedServers = m.FailedServerIDs()
	if err := m.VerifyInvariants(); err != nil {
		rep.InvariantsErr = err.Error()
	}
	return rep, nil
}

// RenderRecord formats one WAL record for listings.
func RenderRecord(rec Record) string {
	mut := &rec.Mut
	switch mut.Op {
	case placement.MutPlace:
		return fmt.Sprintf("%6d  place    tenant %d (%q, %d VMs) on servers %v",
			rec.Seq, mut.Spec.ID, mut.Spec.Name, mut.Spec.VMs, mut.Servers)
	case placement.MutReject:
		return fmt.Sprintf("%6d  reject   tenant %d", rec.Seq, mut.TenantID)
	case placement.MutRemove:
		return fmt.Sprintf("%6d  remove   tenant %d", rec.Seq, mut.TenantID)
	case placement.MutFail:
		return fmt.Sprintf("%6d  fail     servers %v", rec.Seq, mut.Servers)
	case placement.MutRestore:
		return fmt.Sprintf("%6d  restore  servers %v", rec.Seq, mut.Servers)
	default:
		return fmt.Sprintf("%6d  op=%d", rec.Seq, uint8(mut.Op))
	}
}
