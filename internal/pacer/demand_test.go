package pacer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHoseAllocateWithDemandsBasic(t *testing.T) {
	// One small flow (demand 10) and one backlogged flow share a
	// 100-unit receiver: the small flow gets its demand, the rest goes
	// to the backlogged flow.
	send := map[int]float64{1: 100, 2: 100}
	recv := map[int]float64{9: 100}
	flows := []Flow{{1, 9}, {2, 9}}
	demands := map[Flow]float64{{1, 9}: 10} // flow 2 unbounded
	rates := kernelByID(new(HoseKernel), send, recv, demands, flows)
	if math.Abs(rates[Flow{1, 9}]-10) > 1e-6 {
		t.Errorf("small flow = %v, want 10", rates[Flow{1, 9}])
	}
	if math.Abs(rates[Flow{2, 9}]-90) > 1e-6 {
		t.Errorf("backlogged flow = %v, want 90", rates[Flow{2, 9}])
	}
}

func TestHoseAllocateWithDemandsAllBacklogged(t *testing.T) {
	// With no demand caps, the result matches plain HoseAllocate.
	send := map[int]float64{1: 50, 2: 50}
	recv := map[int]float64{9: 60}
	flows := []Flow{{1, 9}, {2, 9}}
	withD := kernelByID(new(HoseKernel), send, recv, nil, flows)
	plain := HoseAllocate(send, recv, flows)
	for _, f := range flows {
		if math.Abs(withD[f]-plain[f]) > 1e-6 {
			t.Errorf("flow %v: demand-aware %v vs plain %v", f, withD[f], plain[f])
		}
	}
}

func TestHoseAllocateWithDemandsZeroDemandFrozen(t *testing.T) {
	send := map[int]float64{1: 100}
	recv := map[int]float64{9: 100}
	rates := kernelByID(new(HoseKernel), send, recv, map[Flow]float64{{1, 9}: 0}, []Flow{{1, 9}})
	if rates[Flow{1, 9}] != 0 {
		t.Errorf("zero-demand flow allocated %v", rates[Flow{1, 9}])
	}
}

// Property: demand-aware allocations respect node caps AND demand
// caps, and weakly dominate nothing above the plain allocation where
// demands are unbounded.
func TestHoseAllocateWithDemandsFeasibilityProperty(t *testing.T) {
	f := func(caps []uint8, edges []uint16, dseed uint8) bool {
		if len(caps) == 0 {
			return true
		}
		send := map[int]float64{}
		recv := map[int]float64{}
		for i, c := range caps {
			send[i] = float64(c%50) + 1
			recv[i+100] = float64(c%37) + 1
		}
		var flows []Flow
		demands := map[Flow]float64{}
		for k, e := range edges {
			src := int(e) % len(caps)
			dst := 100 + int(e>>8)%len(caps)
			fl := Flow{src, dst}
			flows = append(flows, fl)
			if (int(dseed)+k)%3 == 0 {
				demands[fl] = float64(e%23) + 0.5
			}
		}
		rates := kernelByID(new(HoseKernel), send, recv, demands, flows)
		sUsed := map[int]float64{}
		rUsed := map[int]float64{}
		for fl, r := range rates {
			if r < -1e-9 {
				return false
			}
			if d, ok := demands[fl]; ok && r > d*(1+1e-6)+1e-9 {
				return false // demand cap violated
			}
			sUsed[fl.Src] += r
			rUsed[fl.Dst] += r
		}
		for s, u := range sUsed {
			if u > send[s]*(1+1e-6)+1e-9 {
				return false
			}
		}
		for d, u := range rUsed {
			if u > recv[d]*(1+1e-6)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCoordinatorDemandAware(t *testing.T) {
	const b = 1e8
	vms := coordVMs(3, b)
	c := NewCoordinator(b, vms)
	c.DemandAware = true
	// Flow 1->0 is light (one 1500 B packet per 10 ms epoch ≈ 150 KB/s
	// demand, 300 KB/s with headroom); flow 2->0 is backlogged.
	vms[1].Enqueue(0, 0, 1500, nil)
	for i := 0; i < 400; i++ {
		vms[2].Enqueue(0, 0, 1500, nil)
	}
	c.Epoch(10_000_000)
	light := vms[1].DestRate(0)
	heavy := vms[2].DestRate(0)
	if light >= heavy {
		t.Errorf("light flow rate %v should be far below backlogged %v", light, heavy)
	}
	// The backlogged flow gets nearly the whole receiver hose.
	if heavy < 0.9*b {
		t.Errorf("backlogged rate = %v, want ≈%v", heavy, b)
	}
}
