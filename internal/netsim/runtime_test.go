package netsim

import (
	"fmt"
	"reflect"
	"testing"
)

// runProbedWorkload runs the cross-pod permutation blast on the island
// engine with the runtime probe attached, returning the network, the
// probe and the per-host delivery counts.
func runProbedWorkload(t *testing.T, workers, pkts int) (*Network, *RuntimeProbe, []int64) {
	t.Helper()
	nw := BuildParallel(testTree(t), Options{PropNs: 200}, ParallelOptions{Workers: workers})
	rt := nw.PS.AttachRuntime()
	hosts := len(nw.Hosts)
	deliv := make([]int64, hosts)
	for h := range nw.Hosts {
		h := h
		nw.Hosts[h].OnDeliver = func(*Packet, int64) { deliv[h]++ }
		nw.Hosts[h].FreeOnDeliver = true
	}
	gens := make([]*psimGen, hosts)
	for h := range gens {
		g := &psimGen{host: nw.Hosts[h], dst: (h + 3) % hosts, remaining: pkts}
		g.fn = g.send
		gens[h] = g
		g.host.Sim().At(int64(14*h+1), g.fn)
	}
	horizon := int64(14*hosts) + int64(pkts)*1400 + 1_000_000
	nw.Run(horizon)
	return nw, rt, deliv
}

// TestRuntimeAccountingProperty is the probe's structural invariant,
// checked at several worker counts (and under -race in CI): for every
// worker, busy + stall never exceeds the loop lifetime and accounts for
// nearly all of it — the gap is only the loop's own bookkeeping — and
// the per-worker, per-island and coordinator views agree with each
// other. Every structural assertion holds on every run; "nearly all of
// it" is a share of wall-clock time, which a host that preempts the
// loop takes away, so that one is asked of the best of three runs.
func TestRuntimeAccountingProperty(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var short string
		for run := 0; run < 3; run++ {
			if short = checkRuntimeAccounting(t, workers); short == "" {
				break
			}
		}
		if short != "" {
			t.Errorf("workers=%d: in each of three runs a worker's loop went mostly unaccounted for, last: %s", workers, short)
		}
	}
}

// checkRuntimeAccounting runs the probed workload once and asserts the
// structural invariants. It returns a description of a worker whose
// busy + stall covers less than half its loop time, or "" if none does.
func checkRuntimeAccounting(t *testing.T, workers int) (short string) {
	t.Helper()
	nw, rt, deliv := runProbedWorkload(t, workers, 150)
	for h, d := range deliv {
		if d != 150 {
			t.Fatalf("workers=%d: host %d delivered %d packets, want 150", workers, h, d)
		}
	}
	c := rt.Coord
	if c.Epochs == 0 || c.WallNs <= 0 {
		t.Fatalf("workers=%d: coordinator saw no run: %+v", workers, c)
	}
	if got := c.BoundLookahead + c.BoundGlobal + c.BoundHorizon; got != c.Epochs {
		t.Errorf("workers=%d: bound counts sum %d, want %d epochs", workers, got, c.Epochs)
	}
	if c.WindowMinNs > c.WindowMaxNs || c.WindowSumNs < c.Epochs*c.WindowMinNs {
		t.Errorf("workers=%d: inconsistent window stats: %+v", workers, c)
	}
	var workerBusy, islandBusy int64
	for w := 0; w < rt.NumWorkers(); w++ {
		wr := rt.Worker(w)
		if wr.Epochs != c.Epochs {
			t.Errorf("workers=%d: worker %d ran %d epochs, coordinator %d",
				workers, w, wr.Epochs, c.Epochs)
		}
		if wr.BusyNs < 0 || wr.StallNs < 0 || wr.LoopNs <= 0 {
			t.Fatalf("workers=%d: worker %d negative accounting: %+v", workers, w, wr)
		}
		sum := wr.BusyNs + wr.StallNs
		if sum > wr.LoopNs {
			t.Errorf("workers=%d: worker %d busy+stall %d exceeds loop %d",
				workers, w, sum, wr.LoopNs)
		}
		if sum < wr.LoopNs/2 {
			short = fmt.Sprintf("worker %d busy+stall %d accounts for <50%% of loop %d", w, sum, wr.LoopNs)
		}
		if wr.LoopNs > c.WallNs {
			t.Errorf("workers=%d: worker %d loop %d exceeds run wall %d",
				workers, w, wr.LoopNs, c.WallNs)
		}
		workerBusy += wr.BusyNs
	}
	for i := 0; i < rt.NumIslands(); i++ {
		islandBusy += rt.IslandRT(i).BusyNs
	}
	if workerBusy != islandBusy {
		t.Errorf("workers=%d: worker busy %d != island busy %d", workers, workerBusy, islandBusy)
	}
	// Cross-traffic conservation: every packet sent across an island
	// boundary is received and merged exactly once.
	var sent, recv int64
	for i := 0; i < rt.NumIslands(); i++ {
		sent += rt.IslandRT(i).CrossSent
		recv += rt.IslandRT(i).CrossRecv
	}
	if sent == 0 {
		t.Errorf("workers=%d: permutation blast crossed no islands", workers)
	}
	if sent != recv || sent != c.CrossMerged {
		t.Errorf("workers=%d: cross packets sent %d, recv %d, merged %d",
			workers, sent, recv, c.CrossMerged)
	}
	// Engine counters: every island executed events; no packet leaked
	// from the arenas (FreeOnDeliver returns each one).
	var events, inUse int64
	for i := 0; i < nw.PS.Islands(); i++ {
		rtc := nw.PS.Island(i).RuntimeCounters()
		events += rtc.Events
		inUse += rtc.PktInUse
	}
	if events == 0 {
		t.Errorf("workers=%d: islands report no events", workers)
	}
	if inUse != 0 {
		t.Errorf("workers=%d: %d packets still in arenas after drain", workers, inUse)
	}
	return short
}

// TestRuntimeProbeDeterminism: attaching the probe must not perturb the
// simulation — deliveries and per-port counters stay identical to the
// probe-free sequential reference at every worker count.
func TestRuntimeProbeDeterminism(t *testing.T) {
	const pkts = 100
	refNw, _, refDeliv := runCrossPodWorkload(t, 0, pkts)
	for _, workers := range []int{1, 3} {
		nw, _, deliv := runProbedWorkload(t, workers, pkts)
		if !reflect.DeepEqual(deliv, refDeliv) {
			t.Errorf("workers=%d (probed): deliveries diverge: %v vs %v", workers, deliv, refDeliv)
		}
		for pid := range refNw.Queues {
			if refNw.Queues[pid].Stats != nw.Queues[pid].Stats {
				t.Errorf("workers=%d (probed): port %d counters diverge", workers, pid)
			}
		}
	}
}

// TestSimCountersSequential checks the always-on engine counters on the
// single-threaded engine: events flow, the wheel and arenas see
// pressure, the freelists get hits once warm, and the arena drains.
func TestSimCountersSequential(t *testing.T) {
	nw, _, _ := runCrossPodWorkload(t, 0, 100)
	rtc := nw.Sim.RuntimeCounters()
	if rtc.Events == 0 {
		t.Fatal("no events counted")
	}
	if rtc.WheelHWM == 0 {
		t.Error("wheel high-water mark never moved")
	}
	if rtc.EvMisses == 0 || rtc.EvHits == 0 {
		t.Errorf("event freelist never both carved and reused: hits=%d misses=%d",
			rtc.EvHits, rtc.EvMisses)
	}
	if rtc.PktMisses == 0 || rtc.PktHits == 0 {
		t.Errorf("packet arena never both carved and reused: hits=%d misses=%d",
			rtc.PktHits, rtc.PktMisses)
	}
	if rtc.PktHWM == 0 {
		t.Error("packet high-water mark never moved")
	}
	if rtc.PktInUse != 0 {
		t.Errorf("%d packets still in the arena after drain", rtc.PktInUse)
	}
}

// TestAttachRuntimeIdempotent: a second attach returns the same probe
// (callers across layers — CLI, metrics registration, profiler — may
// each attach without clobbering counters).
func TestAttachRuntimeIdempotent(t *testing.T) {
	ps := NewParallelSim(3, 2, 1000)
	rt1 := ps.AttachRuntime()
	rt2 := ps.AttachRuntime()
	if rt1 != rt2 {
		t.Fatal("AttachRuntime allocated a second probe")
	}
	if ps.Runtime() != rt1 {
		t.Fatal("Runtime() does not return the attached probe")
	}
	var nilPS *RuntimeProbe
	if w := nilPS.Worker(0); w != (WorkerRuntime{}) {
		t.Fatal("nil probe Worker not zero")
	}
}
