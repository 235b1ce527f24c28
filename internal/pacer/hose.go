package pacer

// This file implements the sender/receiver rate coordination that
// enforces hose-model semantics (paper §4.3, Figure 8 top row): the
// per-destination bucket rates Bi are chosen so that Σ Bi never
// exceeds the sender VM's guarantee B, and the sum of rates of all
// senders toward one receiver never exceeds the receiver's B. The
// pacers "coordinate with each other like EyeQ": here the coordinator
// is a library the hypervisor control loop (or the simulator) invokes
// with the active communication pattern.

// Flow identifies one sender→receiver pair in a coordination round: VM
// ids for HoseAllocate, indices into the cap slices for HoseKernel.
type Flow struct {
	Src, Dst int
}

// HoseKernel is the max-min solver behind every hose coordination in
// the tree — the flow simulator's per-tenant rates, the static
// installer, the dynamic Coordinator and HoseAllocate. The value holds
// only scratch, reused from call to call, so a warm kernel allocates
// nothing; the zero value is ready and one kernel serves any sequence
// of problems (but not two goroutines at once).
type HoseKernel struct {
	sUsed, rUsed []float64
	sLive, rLive []int
	live         []int // indices of the flows still rising
}

// Solve computes a max-min fair rate (bytes/sec) for every flow under
// per-sender and per-receiver caps by progressive filling: all unfrozen
// flows' rates rise together, and a flow freezes when its sender's or
// receiver's capacity saturates.
//
// flows[i].Src indexes sendCap and flows[i].Dst recvCap; rates[i]
// receives flow i's rate, so len(rates) ≥ len(flows). A flow whose
// index is out of range or whose cap is not positive gets
// zero. Each entry of flows is a flow of its own: two equal pairs share
// their nodes like any two flows.
//
// Every rate is a sum of the rounds' increments, each the minimum over
// nodes of headroom / live flows, and a node's use grows by one
// increment per live flow (never live·increment): min and repeated
// addition of one value do not depend on the order nodes and flows are
// visited in, so the result is a function of the problem alone, bit for
// bit.
func (k *HoseKernel) Solve(sendCap, recvCap []float64, flows []Flow, rates []float64) {
	k.sUsed, k.sLive = zeroed(k.sUsed, len(sendCap)), zeroed(k.sLive, len(sendCap))
	k.rUsed, k.rLive = zeroed(k.rUsed, len(recvCap)), zeroed(k.rLive, len(recvCap))
	live := k.live[:0]
	for i, f := range flows {
		rates[i] = 0
		if f.Src < 0 || f.Src >= len(sendCap) || f.Dst < 0 || f.Dst >= len(recvCap) ||
			sendCap[f.Src] <= 0 || recvCap[f.Dst] <= 0 {
			continue
		}
		k.sLive[f.Src]++
		k.rLive[f.Dst]++
		live = append(live, i)
	}

	// Each round saturates at least one node, so at most
	// |senders|+|receivers| rounds run.
	for len(live) > 0 {
		// The common rate increment is limited by the tightest node:
		// headroom / live flow count.
		delta := -1.0
		for s, n := range k.sLive {
			if n == 0 {
				continue
			}
			if d := (sendCap[s] - k.sUsed[s]) / float64(n); delta < 0 || d < delta {
				delta = d
			}
		}
		for r, n := range k.rLive {
			if n == 0 {
				continue
			}
			if d := (recvCap[r] - k.rUsed[r]) / float64(n); delta < 0 || d < delta {
				delta = d
			}
		}
		if delta < 0 {
			break
		}
		if delta > 0 {
			for _, i := range live {
				rates[i] += delta
				k.sUsed[flows[i].Src] += delta
				k.rUsed[flows[i].Dst] += delta
			}
		}
		// Freeze flows on saturated nodes.
		rising := live[:0]
		for _, i := range live {
			s, r := flows[i].Src, flows[i].Dst
			sc, rc := sendCap[s], recvCap[r]
			if sc-k.sUsed[s] <= 1e-9*sc+1e-12 || rc-k.rUsed[r] <= 1e-9*rc+1e-12 {
				k.sLive[s]--
				k.rLive[r]--
				continue
			}
			rising = append(rising, i)
		}
		if len(rising) == len(live) {
			break // numerical stall; allocation is already max-min up to eps
		}
		live = rising
	}
	k.live = live[:0]
}

// zeroed returns s resized to n zero elements, reusing its array.
func zeroed[T int | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// HoseAllocate is Solve for callers that hold VM ids rather than
// indices: sendCap and recvCap map VM id -> hose guarantee B of that VM
// (a missing entry means "no guarantee" and freezes the flow at zero),
// duplicate flow entries collapse into one flow, and the returned map
// carries one rate per distinct flow.
func HoseAllocate(sendCap, recvCap map[int]float64, flows []Flow) map[Flow]float64 {
	alloc := make(map[Flow]float64, len(flows))
	sIdx, rIdx := make(map[int]int, len(sendCap)), make(map[int]int, len(recvCap))
	var sCap, rCap []float64
	ids, dense := make([]Flow, 0, len(flows)), make([]Flow, 0, len(flows))
	for _, f := range flows {
		if _, dup := alloc[f]; dup {
			continue
		}
		alloc[f] = 0
		ids = append(ids, f)
		dense = append(dense, Flow{denseIndex(sIdx, &sCap, sendCap, f.Src), denseIndex(rIdx, &rCap, recvCap, f.Dst)})
	}
	rates := make([]float64, len(dense))
	new(HoseKernel).Solve(sCap, rCap, dense, rates)
	for i, f := range ids {
		alloc[f] = rates[i]
	}
	return alloc
}

// denseIndex returns the position of VM id's cap in *caps, appending it
// on first sight; -1, which Solve freezes at zero, when byID has none.
func denseIndex(idx map[int]int, caps *[]float64, byID map[int]float64, id int) int {
	if i, ok := idx[id]; ok {
		return i
	}
	c, ok := byID[id]
	if !ok {
		return -1
	}
	idx[id] = len(*caps)
	*caps = append(*caps, c)
	return idx[id]
}
