package pacer

import (
	"math"
	"math/rand"
	"testing"
)

// The reference the hose kernel is checked against: HoseAllocate as it
// was before HoseKernel, maps and all, renamed and otherwise untouched.
// It shares the Flow type with the code under test and nothing else.

// oracleHoseAllocate computes a max-min fair rate for every active flow
// subject to per-sender and per-receiver caps (bytes/sec), via
// progressive filling: all unfrozen flows' rates rise together; a flow
// freezes when its sender's or receiver's capacity saturates. The
// returned map carries one rate per flow.
//
// sendCap and recvCap map VM id -> hose guarantee B of that VM.
// Missing entries mean "no guarantee" and freeze the flow at zero.
func oracleHoseAllocate(sendCap, recvCap map[int]float64, flows []Flow) map[Flow]float64 {
	alloc := make(map[Flow]float64, len(flows))
	frozen := make(map[Flow]bool, len(flows))

	type nodeState struct {
		cap  float64
		used float64
		live int
	}
	senders := make(map[int]*nodeState)
	receivers := make(map[int]*nodeState)
	for _, f := range flows {
		if _, dup := alloc[f]; dup {
			continue // duplicate flow entries collapse
		}
		alloc[f] = 0
		sc, okS := sendCap[f.Src]
		rc, okR := recvCap[f.Dst]
		if !okS || !okR || sc <= 0 || rc <= 0 {
			frozen[f] = true
			continue
		}
		if senders[f.Src] == nil {
			senders[f.Src] = &nodeState{cap: sc}
		}
		senders[f.Src].live++
		if receivers[f.Dst] == nil {
			receivers[f.Dst] = &nodeState{cap: rc}
		}
		receivers[f.Dst].live++
	}

	liveFlows := 0
	for f := range alloc {
		if !frozen[f] {
			liveFlows++
		}
	}

	// Each round saturates at least one node, so at most
	// |senders|+|receivers| rounds run.
	for liveFlows > 0 {
		// The common rate increment is limited by the tightest node:
		// headroom / live flow count.
		delta := -1.0
		for _, s := range senders {
			if s.live == 0 {
				continue
			}
			d := (s.cap - s.used) / float64(s.live)
			if delta < 0 || d < delta {
				delta = d
			}
		}
		for _, r := range receivers {
			if r.live == 0 {
				continue
			}
			d := (r.cap - r.used) / float64(r.live)
			if delta < 0 || d < delta {
				delta = d
			}
		}
		if delta < 0 {
			break
		}
		if delta > 0 {
			for f := range alloc {
				if frozen[f] {
					continue
				}
				alloc[f] += delta
				senders[f.Src].used += delta
				receivers[f.Dst].used += delta
			}
		}
		// Freeze flows on saturated nodes.
		progressed := false
		for f := range alloc {
			if frozen[f] {
				continue
			}
			s, r := senders[f.Src], receivers[f.Dst]
			if s.cap-s.used <= 1e-9*s.cap+1e-12 || r.cap-r.used <= 1e-9*r.cap+1e-12 {
				frozen[f] = true
				s.live--
				r.live--
				liveFlows--
				progressed = true
			}
		}
		if !progressed {
			break // numerical stall; allocation is already max-min up to eps
		}
	}
	return alloc
}

// kernelByID runs HoseKernel on a problem stated the oracle's way: caps
// keyed by VM id, duplicate pairs collapsed.
func kernelByID(k *HoseKernel, sendCap, recvCap map[int]float64, flows []Flow) map[Flow]float64 {
	alloc := make(map[Flow]float64, len(flows))
	sIdx, rIdx := map[int]int{}, map[int]int{}
	var sCap, rCap []float64
	var ids, dense []Flow
	for _, f := range flows {
		if _, dup := alloc[f]; dup {
			continue
		}
		alloc[f] = 0
		ids = append(ids, f)
		dense = append(dense, Flow{denseIndex(sIdx, &sCap, sendCap, f.Src), denseIndex(rIdx, &rCap, recvCap, f.Dst)})
	}
	rates := make([]float64, len(dense))
	k.Solve(sCap, rCap, dense, rates)
	for i, f := range ids {
		alloc[f] = rates[i]
	}
	return alloc
}

// hoseProblem draws a coordination round on 1–64 nodes: caps that are
// equal, asymmetric, zero or missing; and flows with duplicate pairs.
func hoseProblem(rng *rand.Rand) (send, recv map[int]float64, flows []Flow) {
	n := 1 + rng.Intn(64)
	send, recv = map[int]float64{}, map[int]float64{}
	uniform := rng.Intn(3) == 0
	capOf := func() (float64, bool) {
		switch u := rng.Intn(20); {
		case u == 0:
			return 0, false // missing
		case u == 1:
			return 0, true
		case uniform:
			return 2.5e8, true
		default:
			return math.Ldexp(1+rng.Float64(), rng.Intn(34)-2), true
		}
	}
	for i := 0; i < n; i++ {
		if c, ok := capOf(); ok {
			send[i] = c
		}
		if c, ok := capOf(); ok {
			recv[i] = c
		}
	}
	for m := rng.Intn(4 * n); m >= 0; m-- {
		f := Flow{rng.Intn(n), rng.Intn(n)}
		flows = append(flows, f)
		if rng.Intn(8) == 0 {
			flows = append(flows, f)
		}
	}
	return send, recv, flows
}

// The kernel — directly and through HoseAllocate — returns the oracle's
// rates bit for bit, one scratch serving every problem.
func TestHoseKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var k HoseKernel
	for trial := 0; trial < 3000; trial++ {
		send, recv, flows := hoseProblem(rng)
		want := oracleHoseAllocate(send, recv, flows)
		sameRates(t, trial, "HoseAllocate", HoseAllocate(send, recv, flows), want)
		sameRates(t, trial, "kernel", kernelByID(&k, send, recv, flows), want)
	}
}

func sameRates(t *testing.T, trial int, what string, got, want map[Flow]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %s returns %d flows, oracle %d", trial, what, len(got), len(want))
	}
	for f, w := range want {
		g, ok := got[f]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d: %s gives flow %v rate %v (%#x), oracle %v (%#x)",
				trial, what, f, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}
