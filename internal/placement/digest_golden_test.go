package placement

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tenant"
)

// digestClasses are the guarantees the decision-digest stream draws
// from: Table 3's class A and class B, a third class, and then four
// more, so that the last third of the stream asks for more distinct
// guarantees than the manager keeps per-server caps for.
var digestClasses = []tenant.Guarantee{
	{BandwidthBps: 0.25 * gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * gbps},
	{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps},
	{BandwidthBps: 0.5 * gbps, BurstBytes: 7.5e3, DelayBound: 2e-3, BurstRateBps: 1.5 * gbps},
	{BandwidthBps: 1 * gbps, BurstBytes: 30e3, BurstRateBps: 3 * gbps},
	{BandwidthBps: 0.1 * gbps, BurstBytes: 40e3, DelayBound: 1e-3, BurstRateBps: 0.5 * gbps},
	{BandwidthBps: 0.75 * gbps, BurstBytes: 2.5e3, BurstRateBps: 0},
	{BandwidthBps: 1.5 * gbps, BurstBytes: 10e3, DelayBound: 5e-4, BurstRateBps: 4 * gbps},
}

// digestGoldenStream replays 6,000 admission requests of 2–15 VMs on a
// 4 × 10 × 20-server tree of 4 slots, with departures, server failures
// recovered through Recover, servers failed without evacuation, and
// restores. Requests draw from classes A and B in the first third of
// the stream, from a third class too in the second, and from all seven
// in the last. It
// hashes, per block of 1,000 requests, the servers of every accept, the
// Explain text of every reject and every recovery report, and returns
// the digests with the stream's tallies.
func digestGoldenStream(t *testing.T) string {
	t.Helper()
	const requests, block = 6000, 1000
	m := NewManager(wideTree(t, 4, 10, 20, 0), Options{})
	m.EnableJournal(0)
	servers := m.tree.Servers()
	rng := stats.NewRand(2026)
	var (
		live, failed []int
		h            = sha256.New()
		out          strings.Builder
		reasons      = map[string]int{}
		removes      int
		recovered    int
	)
	kinds := []string{"constraint 1: server ", "constraint 1: packed layout ", "constraint 2: ", "insufficient free slots: ", "fault domains: "}
	for id := 1; id <= requests; {
		switch x := rng.Float64(); {
		case x < 0.44 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := m.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			removes++
			continue
		case x < 0.446:
			down := []int{rng.Intn(servers), rng.Intn(servers)}
			fmt.Fprint(h, m.Recover(down, nil, RecoverOptions{}).Render())
			failed = append(failed, down...)
			live = m.AdmittedIDs()
			recovered++
			continue
		case x < 0.449:
			s := rng.Intn(servers)
			m.FailServers(s)
			failed = append(failed, s)
			fmt.Fprintf(h, "fail %d\n", s)
			continue
		case x < 0.452 && len(failed) > 0:
			m.RestoreServers(failed...)
			fmt.Fprintf(h, "restore %v\n", failed)
			failed = failed[:0]
			continue
		}
		classes := 2
		switch {
		case id > 2*requests/3:
			classes = len(digestClasses)
		case id > requests/3:
			classes = 3
		}
		spec := tenant.Spec{
			ID: id, Name: "digest", VMs: 2 + rng.Intn(14), FaultDomains: 1 + rng.Intn(2),
			Guarantee: digestClasses[rng.Intn(classes)],
		}
		if pl, err := m.Place(spec); err == nil {
			fmt.Fprintf(h, "%d %v\n", id, pl.Servers)
			live = append(live, id)
		} else {
			text := m.Explain(id)
			h.Write([]byte(text))
			for _, k := range kinds {
				if strings.Contains(text, k) {
					reasons[k]++
				}
			}
		}
		if id%block == 0 {
			fmt.Fprintf(&out, "requests %4d-%4d: %x\n", id-block+1, id, h.Sum(nil)[:12])
			h.Reset()
		}
		id++
	}
	if err := m.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "accepted %d rejected %d removes %d recoveries %d live %d free slots %d\n",
		m.Accepted(), m.Rejected(), removes, recovered, len(m.admitted), m.ix.totalFree)
	for _, k := range kinds {
		fmt.Fprintf(&out, "rejects %q: %d\n", strings.TrimSpace(k), reasons[k])
	}
	return out.String()
}

// Every decision of a long churned stream on a mid-sized tree is pinned
// through digests: the servers of each accept, the wording of each
// reject's explanation and each recovery report. A change to the
// search's shortcuts that keeps decisions keeps this file.
func TestDecisionDigestGolden(t *testing.T) {
	const path = "testdata/decisions.golden"
	got := digestGoldenStream(t)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("decisions differ from %s (rerun with -update if intended):\n%s", path, firstDiff(got, string(want)))
	}
}
