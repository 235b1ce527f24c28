package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tenant"
)

// snapEnvelope is the on-disk snapshot file: provenance, the sequence
// number the state covers, and the state itself guarded by a CRC over
// its raw bytes (a snapshot that fails either JSON parse or CRC is
// treated as absent, falling back to full WAL replay or safe mode).
type snapEnvelope struct {
	Meta  *obs.RunMeta    `json:"meta,omitempty"`
	Seq   uint64          `json:"seq"`
	CRC32 uint32          `json:"crc32"`
	State json.RawMessage `json:"state"`
}

// snapState is the full durable manager state at one mutation seq: the
// admitted set, the failed-server set, and the cumulative admission
// counters.
type snapState struct {
	Seq      uint64       `json:"seq"`
	Accepted int          `json:"accepted"`
	Rejected int          `json:"rejected"`
	Failed   []int        `json:"failed,omitempty"`
	Tenants  []snapTenant `json:"tenants"`
}

type snapTenant struct {
	Spec    tenant.Spec `json:"spec"`
	Servers []int       `json:"servers"`
}

func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%016x.json", seq) }
func walName(seq uint64) string      { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSeqName extracts the hex seq from "prefix-<16 hex>.suffix".
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// captureState reads the manager's full durable state. Tenants are
// emitted in ascending ID order so snapshots of identical state are
// byte-identical.
func captureState(m *placement.Manager, seq uint64) *snapState {
	st := &snapState{
		Seq:      seq,
		Accepted: m.Accepted(),
		Rejected: m.Rejected(),
		Failed:   m.FailedServerIDs(),
	}
	for _, id := range m.AdmittedIDs() {
		pl, _ := m.Placement(id)
		st.Tenants = append(st.Tenants, snapTenant{Spec: pl.Spec, Servers: pl.Servers})
	}
	return st
}

// restoreState rebuilds manager state from a snapshot: every admitted
// placement is re-applied first, then the failed servers are disabled.
// That order is exact — a slot freed by apply and later hidden by the
// disable ends in the same index state as any live interleaving,
// because hidden[s] always equals capacity minus slots the admitted
// set holds on s.
func restoreState(m *placement.Manager, st *snapState) error {
	for _, t := range st.Tenants {
		if err := m.Apply(&placement.Mutation{Op: placement.MutPlace, Spec: t.Spec, Servers: t.Servers}); err != nil {
			return fmt.Errorf("durable: snapshot tenant %d: %w", t.Spec.ID, err)
		}
	}
	if err := m.Apply(&placement.Mutation{Op: placement.MutFail, Servers: st.Failed}); err != nil {
		return err
	}
	m.SetAdmissionCounters(st.Accepted, st.Rejected)
	return nil
}

// writeSnapshot atomically persists st: marshal, CRC, write to a temp
// file, fsync, rename into place, then read the file back and validate
// it end to end before the caller may delete the WAL records it
// covers.
func writeSnapshot(dir string, st *snapState, meta *obs.RunMeta) (string, error) {
	raw, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	env := snapEnvelope{Meta: meta, Seq: st.Seq, CRC32: crc32.ChecksumIEEE(raw), State: raw}
	b, err := json.MarshalIndent(&env, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapshotName(st.Seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	syncDir(dir)
	if _, err := readSnapshot(path); err != nil {
		return "", fmt.Errorf("durable: snapshot read-back: %w", err)
	}
	return path, nil
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (*snapState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env snapEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("durable: snapshot parse: %w", err)
	}
	// The CRC is over the canonical (compact) state encoding; the
	// envelope's indented marshal re-formats the embedded raw message,
	// so compact it back before checking.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.State); err != nil {
		return nil, fmt.Errorf("durable: snapshot state: %w", err)
	}
	if crc32.ChecksumIEEE(compact.Bytes()) != env.CRC32 {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch")
	}
	var st snapState
	if err := json.Unmarshal(env.State, &st); err != nil {
		return nil, fmt.Errorf("durable: snapshot state parse: %w", err)
	}
	if st.Seq != env.Seq {
		return nil, fmt.Errorf("durable: snapshot seq mismatch: envelope %d state %d", env.Seq, st.Seq)
	}
	return &st, nil
}

// listSeqFiles returns dir entries named prefix-<16 hex>suffix in
// ascending seq order.
func listSeqFiles(dir, prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type nf struct {
		name string
		seq  uint64
	}
	var out []nf
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			out = append(out, nf{e.Name(), seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	names := make([]string, len(out))
	for i, f := range out {
		names[i] = f.name
	}
	return names, nil
}

// syncDir fsyncs a directory so renames and deletions are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
