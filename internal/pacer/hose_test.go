package pacer

import (
	"math"
	"testing"
)

// hoseAllToAll is the 49-VM all-to-all tenant benchmark/kernels.go
// times through HoseAllocate, in the kernel's own terms.
func hoseAllToAll() (caps []float64, flows []Flow) {
	const n = 49
	for i := 0; i < n; i++ {
		caps = append(caps, 2.5e8)
		for j := 0; j < n; j++ {
			if i != j {
				flows = append(flows, Flow{i, j})
			}
		}
	}
	return caps, flows
}

// A warm kernel allocates nothing.
func TestHoseKernelAllocs(t *testing.T) {
	caps, flows := hoseAllToAll()
	rates := make([]float64, len(flows))
	var k HoseKernel
	k.Solve(caps, caps, flows, nil, rates)
	if a := testing.AllocsPerRun(20, func() { k.Solve(caps, caps, flows, nil, rates) }); a != 0 {
		t.Errorf("warm Solve allocates %v times per call, want 0", a)
	}
	if want := 2.5e8 / 48; math.Abs(rates[0]-want) > 1e-6*want {
		t.Errorf("all-to-all rate = %v, want %v", rates[0], want)
	}
}

func BenchmarkHoseKernel(b *testing.B) {
	caps, flows := hoseAllToAll()
	rates := make([]float64, len(flows))
	var k HoseKernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Solve(caps, caps, flows, nil, rates)
	}
}
