package experiments

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/placement/durable"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/units"
)

// SoakParams configures the chaos soak: randomized control-plane churn
// against a durable placement manager, interrupted by simulated
// crash-kills that clip the WAL at a random byte offset — including
// mid-record, the torn-write case — and recover from what survived.
type SoakParams struct {
	// Duration is a wall-clock safety timeout: the soak stops when it
	// elapses, whether or not MaxCrashes cycles have run.
	Duration time.Duration
	// Seed drives the churn and the crash offsets.
	Seed uint64
	// MaxCrashes is the soak's length in crash/recovery cycles (0 =
	// until Duration elapses). With a seed it fixes the whole run.
	MaxCrashes int
}

// DefaultSoakParams is sized for a quick local run (a few seconds); CI
// asks for a longer count with silo-bench's -requests.
func DefaultSoakParams() SoakParams {
	return SoakParams{
		Duration:   10 * time.Minute,
		MaxCrashes: 600,
		Seed:       42,
	}
}

const (
	// soakOpsPerCycle is the churn length between crash-kills.
	soakOpsPerCycle = 40
	// soakSyncEvery batches WAL fsyncs (records past the last fsync are
	// exactly what a crash may clip).
	soakSyncEvery = 4
	// soakSnapshotEvery sets the snapshot cadence, exercising rotation
	// and segment GC under crashes.
	soakSnapshotEvery = 64
)

// SoakResult is the soak verdict. The hard assertions — zero invariant
// violations, zero overbooked ports, zero unexplained safe-mode
// entries — surface as the Violations list; a healthy soak has none.
type SoakResult struct {
	MaxCrashes    int     `json:"max_crashes"`
	TimeoutSec    float64 `json:"timeout_sec"`
	Seed          uint64  `json:"seed"`
	OpsPerCycle   int     `json:"ops_per_cycle"`
	SyncEvery     int     `json:"sync_every"`
	SnapshotEvery int     `json:"snapshot_every"`

	// Crashes counts crash/recovery cycles completed.
	Crashes int `json:"crashes"`
	// Mutations is the highest WAL sequence number reached.
	Mutations uint64 `json:"mutations"`
	// Churn op outcomes across the whole soak.
	Places   int `json:"places"`
	Rejects  int `json:"rejects"`
	Removes  int `json:"removes"`
	Recovers int `json:"recovers"`
	// TornTails counts recoveries that found (and clipped) a torn
	// record; TruncatedBytes is the total clipped.
	TornTails      int   `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// ReplayedRecords totals WAL records re-applied across recoveries.
	ReplayedRecords  int   `json:"replayed_records"`
	MaxReplayRecords int   `json:"max_replay_records"`
	MaxReplayNs      int64 `json:"max_replay_ns"`
	MeanReplayNs     int64 `json:"mean_replay_ns"`
	// Snapshots counts recoveries that started from a snapshot.
	SnapshotRestores int `json:"snapshot_restores"`
	// Violations lists every broken promise the soak observed:
	// invariant failures (overbooked ports included), corrupt tails
	// from clean truncation, unexplained safe-mode entries, divergence
	// between the recovered sequence and the surviving log bytes.
	Violations []string `json:"violations,omitempty"`

	ElapsedNs int64        `json:"elapsed_ns"`
	Meta      *obs.RunMeta `json:"meta,omitempty"`
}

// Render formats the soak verdict.
func (r *SoakResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: seed %d, %d cycles (timeout %.0fs), %d ops/cycle, sync every %d, snapshot every %d\n",
		r.Seed, r.MaxCrashes, r.TimeoutSec, r.OpsPerCycle, r.SyncEvery, r.SnapshotEvery)
	fmt.Fprintf(&b, "crashes: %d cycles, %d mutations logged (%d placed, %d rejected, %d removed, %d recover calls)\n",
		r.Crashes, r.Mutations, r.Places, r.Rejects, r.Removes, r.Recovers)
	fmt.Fprintf(&b, "recovery: %d records replayed (max %d/cycle), torn tails clipped %d (%d B), %d snapshot restores\n",
		r.ReplayedRecords, r.MaxReplayRecords, r.TornTails, r.TruncatedBytes, r.SnapshotRestores)
	fmt.Fprintf(&b, "replay time: max %.3f ms, mean %.3f ms\n",
		float64(r.MaxReplayNs)/1e6, float64(r.MeanReplayNs)/1e6)
	if len(r.Violations) == 0 {
		b.WriteString("verdict: OK — zero invariant violations, zero overbooked ports, zero unexplained safe-mode entries\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAILED — %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// WriteFile persists the RunMeta-stamped soak report as JSON.
func (r *SoakResult) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// soakTree is the soak fabric (mirrors the placement churn tests).
func soakTree() (*topology.Tree, error) {
	return topology.New(TenGbE(2, 2, 4, 4, 2, 2))
}

// soakSpec derives one churn tenant spec from the RNG stream.
func soakSpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 1 + rng.Intn(6)
	fd := 1 + rng.Intn(2)
	if fd > vms {
		fd = vms
	}
	return tenant.Spec{
		ID:   id,
		Name: fmt.Sprintf("soak-%d", id),
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(10)) * 100 * units.Mbps,
			BurstBytes:   float64(1+rng.Intn(10)) * 3e3,
			DelayBound:   float64(rng.Intn(3)) * 1e-3,
			BurstRateBps: 10 * units.Gbps,
		},
		FaultDomains: fd,
	}
}

// crashCopy simulates a kill -9 plus torn write: it copies the store
// dir and clips the live WAL segment's copy at cut bytes.
func crashCopy(src, dst, liveSeg string, cut int64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if d.Name() == liveSeg && int64(len(b)) > cut {
			b = b[:cut]
		}
		return os.WriteFile(filepath.Join(dst, d.Name()), b, 0o644)
	})
}

// RunSoak drives the chaos soak: churn the durable manager, crash-kill
// it at a random WAL offset, recover from the surviving bytes, verify
// every invariant, repeat for MaxCrashes cycles or until the Duration
// timeout. The stores live in a fresh temp dir, removed afterwards.
func RunSoak(p SoakParams, meta *obs.RunMeta) (*SoakResult, error) {
	if p.Duration <= 0 {
		p.Duration = DefaultSoakParams().Duration
	}
	root, err := os.MkdirTemp("", "silo-soak")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	tree, err := soakTree()
	if err != nil {
		return nil, err
	}

	res := &SoakResult{
		MaxCrashes:    p.MaxCrashes,
		TimeoutSec:    p.Duration.Seconds(),
		Seed:          p.Seed,
		OpsPerCycle:   soakOpsPerCycle,
		SyncEvery:     soakSyncEvery,
		SnapshotEvery: soakSnapshotEvery,
		Meta:          meta,
	}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	rng := stats.NewRand(p.Seed)
	opts := durable.Options{SyncEvery: soakSyncEvery, SnapshotEvery: soakSnapshotEvery, Meta: meta}
	liveDir := filepath.Join(root, "store-000000")
	m, _, err := durable.Open(liveDir, tree, opts)
	if err != nil {
		return nil, err
	}
	nextID := 1
	replayNsTotal := int64(0)
	start := time.Now()
	deadline := start.Add(p.Duration)

	for time.Now().Before(deadline) && len(res.Violations) == 0 {
		if p.MaxCrashes > 0 && res.Crashes >= p.MaxCrashes {
			break
		}
		// Churn phase.
		for i := 0; i < soakOpsPerCycle; i++ {
			switch r := rng.Float64(); {
			case r < 0.55:
				if _, err := m.Place(soakSpec(rng, nextID)); err != nil {
					res.Rejects++
				} else {
					res.Places++
				}
				nextID++
			case r < 0.80:
				if ids := m.AdmittedIDs(); len(ids) > 0 {
					m.Remove(ids[rng.Intn(len(ids))])
					res.Removes++
				}
			case r < 0.93:
				s := rng.Intn(tree.Servers())
				if !m.ServerFailed(s) {
					if _, err := m.Recover([]int{s}, nil); err != nil {
						violate("cycle %d: recover log error: %v", res.Crashes, err)
					}
					res.Recovers++
				}
			default:
				if failed := m.FailedServerIDs(); len(failed) > 0 {
					if err := m.RestoreServers(failed...); err != nil {
						violate("cycle %d: restore log error: %v", res.Crashes, err)
					}
				}
			}
		}
		if m.Seq() > res.Mutations {
			res.Mutations = m.Seq()
		}

		// Crash phase: clip the live segment at a random offset within
		// the last 64 bytes — usually mid-record, the torn-write case.
		seqBefore := m.Seq()
		segName := filepath.Base(m.WALPath())
		size := m.WALSize()
		lo := size - 64
		if lo < 0 {
			lo = 0
		}
		cut := lo + int64(rng.Intn(int(size-lo)+1))
		nextDir := filepath.Join(root, fmt.Sprintf("store-%06d", res.Crashes+1))
		if err := crashCopy(liveDir, nextDir, segName, cut); err != nil {
			return nil, err
		}
		m.Close() // release the abandoned store's fd; the copy is the crash image
		os.RemoveAll(liveDir)

		// The surviving log bytes predict the recovered sequence.
		clipped, rerr := os.ReadFile(filepath.Join(nextDir, segName))
		if rerr != nil {
			return nil, rerr
		}
		recs, _, _ := durable.DecodeRecords(clipped)

		r, info, err := durable.Open(nextDir, tree, opts)
		if err != nil {
			violate("cycle %d: recovery failed: %v", res.Crashes, err)
			break
		}
		res.Crashes++
		res.ReplayedRecords += info.ReplayedRecords
		if info.ReplayedRecords > res.MaxReplayRecords {
			res.MaxReplayRecords = info.ReplayedRecords
		}
		if info.ReplayNs > res.MaxReplayNs {
			res.MaxReplayNs = info.ReplayNs
		}
		replayNsTotal += info.ReplayNs
		if info.TornTail {
			res.TornTails++
		}
		res.TruncatedBytes += info.TruncatedBytes
		if info.SnapshotSeq > 0 {
			res.SnapshotRestores++
		}

		// Hard assertions. VerifyInvariants recomputes every port's
		// admitted load against its capacity bound, so a pass means no
		// port is overbooked.
		if err := r.VerifyInvariants(); err != nil {
			violate("cycle %d: invariants after recovery: %v", res.Crashes, err)
		}
		if info.CorruptTail {
			violate("cycle %d: clean truncation reported a corrupt tail: %+v", res.Crashes, info)
		}
		if info.SafeMode || r.SafeMode() {
			violate("cycle %d: unexplained safe-mode entry: %+v", res.Crashes, info)
		}
		if r.Seq() > seqBefore {
			violate("cycle %d: recovered seq %d exceeds pre-crash seq %d", res.Crashes, r.Seq(), seqBefore)
		}
		if len(recs) > 0 && r.Seq() != recs[len(recs)-1].Seq {
			violate("cycle %d: recovered seq %d, surviving log ends at %d",
				res.Crashes, r.Seq(), recs[len(recs)-1].Seq)
		}
		if r.Seq() < info.SnapshotSeq {
			violate("cycle %d: recovered seq %d below snapshot seq %d", res.Crashes, r.Seq(), info.SnapshotSeq)
		}
		m, liveDir = r, nextDir
	}
	m.Close()
	res.ElapsedNs = time.Since(start).Nanoseconds()
	if res.Crashes > 0 {
		res.MeanReplayNs = replayNsTotal / int64(res.Crashes)
	}
	return res, nil
}
