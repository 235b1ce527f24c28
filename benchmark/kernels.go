package main

import (
	"math/rand"
	"time"

	silo "repro"
	"repro/internal/netcal"
	"repro/internal/pacer"
)

// Kernels are timed direct calls into one layer, run on the traced
// pass of the workload whose end-to-end numbers they should explain.
// sink keeps the compiler from discarding the calls.
var sink float64

// nsPerCall times fn in growing batches until one batch lasts 20 ms and
// returns that batch's time per call.
func nsPerCall(fn func()) float64 {
	for n := 1; ; n *= 4 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 20*time.Millisecond {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// netcalKernels times the three network-calculus primitives admission
// leans on: the closed-form token-bucket bound, the general curve bound
// on the aggregate of Fig. 5's nine VMs, and hose aggregation.
func netcalKernels(l map[string]float64) {
	l["netcal.queuebound_tb_ns"] = nsPerCall(func() {
		sink += netcal.QueueBoundTB(9*gbps, 900e3, 10*gbps)
	})
	vm := netcal.NewRateCapped(1*gbps, 100e3, 10*gbps, 1500)
	agg := netcal.Sum(vm, vm, vm, vm, vm, vm, vm, vm, vm)
	svc := netcal.NewRateLatency(10*gbps, 1500/(10*gbps))
	l["netcal.queuebound_curve_ns"] = nsPerCall(func() {
		sink += netcal.QueueBound(agg, svc)
	})
	l["netcal.hose_aggregate_ns"] = nsPerCall(func() {
		sink += netcal.HoseAggregate(4, 9, 1*gbps, 100e3, 10*gbps, 1500).LongTermRate()
	})
}

// pathKernel times path lookup between random servers of tree.
func pathKernel(l map[string]float64, tree *silo.Datacenter) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(tree.Servers()), rng.Intn(tree.Servers())}
	}
	var buf []int
	i := 0
	l["topology.path_ns"] = nsPerCall(func() {
		p := pairs[i&1023]
		buf = tree.AppendPathIDs(buf[:0], p[0], p[1])
		sink += float64(len(buf))
		i++
	})
}

// batchKernel times paced batch construction for one backlogged VM
// limited to 8 of the NIC's 10 Gbps, per wire frame (data or void).
func batchKernel(l map[string]float64) {
	const payload = 1500
	const wireNs = int64(10e6)
	const packets = 6666 // 8 Gbps of 1500 B frames for 10 ms
	vm := silo.NewPacedVM(1, silo.PacerGuarantee{BandwidthBps: 8 * gbps, BurstBytes: payload, MTUBytes: payload}, 0)
	b := silo.NewBatcher(10 * gbps)
	for i := 0; i < packets; i++ {
		vm.Enqueue(0, 2, payload, nil)
	}
	frames := 0
	t0 := time.Now()
	for cursor := int64(0); cursor < wireNs; {
		batch := b.Build(cursor, []*silo.PacedVM{vm})
		if len(batch.Packets) == 0 {
			break
		}
		frames += len(batch.Packets)
		cursor = batch.End
	}
	l["pacer.build_ns_per_frame"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(frames))
}

// hoseKernel times one max-min hose allocation for a 49-VM all-to-all
// tenant, the size the flow simulator's mean tenant has in the paper.
func hoseKernel(l map[string]float64) {
	const n = 49
	send, recv := map[int]float64{}, map[int]float64{}
	var flows []pacer.Flow
	for i := 0; i < n; i++ {
		send[i], recv[i] = 2*gbps, 2*gbps
		for j := 0; j < n; j++ {
			if i != j {
				flows = append(flows, pacer.Flow{Src: i, Dst: j})
			}
		}
	}
	l["pacer.hose_allocate_us"] = nsPerCall(func() {
		sink += float64(len(pacer.HoseAllocate(send, recv, flows)))
	}) / 1e3
}
