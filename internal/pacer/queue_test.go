package pacer

import (
	"math/rand"
	"testing"
)

// TestPooledQueuesMatchSliceFIFOProperty: seeded random Enqueue and
// Schedule over 1–20 destinations commit exactly what the oracle's
// slice FIFOs do — same Ref, release and gate, in the same order. The
// bursts run a queue past several blocks and drain it back, so blocks
// move between queues through the VM's free list.
func TestPooledQueuesMatchSliceFIFOProperty(t *testing.T) {
	const mtu = 1538
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDst := 1 + rng.Intn(20)
		g := Guarantee{BandwidthBps: 1e9 / 8, BurstBytes: 15e3, BurstRateBps: 10e9 / 8, MTUBytes: mtu}
		vm, ovm := NewVM(1, g, 0), newOracleVM(1, g, 0)
		for d := 0; d < nDst; d++ {
			if rng.Intn(3) > 0 {
				rate := g.BandwidthBps / float64(1+rng.Intn(nDst))
				vm.SetDestRate(0, d, rate)
				ovm.setDestRate(0, d, rate)
			}
		}
		var now int64
		commits := 0
		pop := func(upTo int64) {
			vm.Schedule(upTo)
			ovm.schedule(upTo)
			for {
				got, ok := vm.PopReady(upTo)
				want, wok := ovm.popReady(upTo)
				if ok != wok {
					t.Fatalf("seed %d commit %d: pop ok=%v, oracle %v", seed, commits, ok, wok)
				}
				if !ok {
					return
				}
				if got.Ref != want.Ref || got.Release != want.Release || got.Gate != want.Gate {
					t.Fatalf("seed %d commit %d: got %+v, oracle %+v", seed, commits, got, want.Packet)
				}
				commits++
			}
		}
		n := 0
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				d := rng.Intn(nDst)
				for k := rng.Intn(3 * blockLen); k >= 0; k-- {
					n++
					bytes := 64 + rng.Intn(mtu-63)
					vm.Enqueue(now, d, bytes, tag{1, d, n})
					ovm.enqueue(now, d, bytes, tag{1, d, n})
				}
				continue
			}
			now += rng.Int63n(2_000_000)
			pop(now)
		}
		pop(1 << 62)
		if commits != n || vm.Pending() != 0 {
			t.Fatalf("seed %d: %d of %d enqueued committed, %d pending", seed, commits, n, vm.Pending())
		}
	}
}

// TestDrainedVMRefillsWithoutAllocating: the blocks a drained VM's
// queues gave back carry the next backlog of the same size, whichever
// destinations it goes to.
func TestDrainedVMRefillsWithoutAllocating(t *testing.T) {
	vm := NewVM(1, Guarantee{BandwidthBps: 1e9 / 8, BurstBytes: 15e3, BurstRateBps: 10e9 / 8, MTUBytes: 1538}, 0)
	for d := 0; d < 8; d++ {
		vm.SetDestRate(0, d, 1e9/8/8)
	}
	var now int64
	round := 0
	cycle := func() {
		round++
		for i := 0; i < 8*blockLen; i++ {
			// Rotate the split so each round's queues differ in length.
			vm.Enqueue(now, (i*(round%3+1))%8, 1538, nil)
		}
		vm.Schedule(1 << 62)
		for {
			p, ok := vm.PopReady(1 << 62)
			if !ok {
				break
			}
			now = p.Release
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("drain-and-refill cycle: %.1f allocs per run, want 0", allocs)
	}
}
