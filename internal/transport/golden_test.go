package transport

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pacer"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.golden from this run")

// digestRun drives one seeded workload through a Fabric on testNet and
// returns a line naming it, the sha256 of everything the run produced
// and the counts that show what it exercised.
//
// Twelve VMs, two per host, exchange 600 messages of 1 B–120 KB through
// 30 KB switch buffers (which only the unpaced runs overflow). VM 101 is re-registered on another host 4 ms in,
// with its streams in flight, and host 1's ToR down-port fails from 6 to
// 8 ms. The hash covers every message's completion time and RTO count,
// every connection's segment, retransmission and ack counters, every
// port's counters and every host's fault drops.
func digestRun(t *testing.T, name string, variant Variant, paced bool) string {
	t.Helper()
	const (
		vmsPerHost = 2
		msgs       = 600
		horizon    = 200_000_000
	)
	nw := testNet(t, 30e3)
	if variant == DCTCP {
		nics := map[*netsim.Queue]bool{}
		for _, h := range nw.Hosts {
			nics[h.NIC] = true
		}
		for _, q := range nw.Queues {
			if !nics[q] {
				q.ECNThresholdBytes = 15e3
			}
		}
	}
	f := NewFabric(nw)
	opt := Options{Variant: variant, MinRTONs: 1_000_000, Paced: paced}
	g := pacer.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1518}
	pacers := map[int]*pacer.VM{}
	addVM := func(vmID, hostID int) *Endpoint {
		if paced {
			h := nw.Hosts[hostID]
			if !h.Paced() {
				h.EnablePacing(pacer.NewBatcher(10 * gbps))
			}
			vm := pacer.NewVM(vmID, g, nw.Sim.Now())
			h.AddVM(vm)
			pacers[vmID] = vm
		}
		return f.AddEndpoint(vmID, hostID, opt)
	}

	var vmIDs []int
	current := map[int]*Endpoint{}
	var all []*Endpoint
	for h := range nw.Hosts {
		for k := 0; k < vmsPerHost; k++ {
			id := 100 + h*vmsPerHost + k
			vmIDs = append(vmIDs, id)
			current[id] = addVM(id, h)
			all = append(all, current[id])
		}
	}
	if paced {
		// One tenant: the coordinator retunes every per-destination hose
		// bucket each millisecond, so heads wait at their hose stage.
		coord := pacer.NewCoordinator(2*gbps, pacers)
		nw.Sim.Every(1_000_000, horizon, func(now int64) { coord.Epoch(now) })
	}

	rng := rand.New(rand.NewSource(31))
	var sent []*Message
	for i := 0; i < msgs; i++ {
		at := rng.Int63n(10_000_000)
		src := vmIDs[rng.Intn(len(vmIDs))]
		dst := vmIDs[rng.Intn(len(vmIDs))]
		for dst == src {
			dst = vmIDs[rng.Intn(len(vmIDs))]
		}
		size := 1 + rng.Intn(120_000)
		nw.Sim.At(at, func() { sent = append(sent, current[src].SendMessage(dst, size, nil)) })
	}
	nw.Sim.At(4_000_000, func() {
		current[101] = addVM(101, 4)
		all = append(all, current[101])
	})
	down := nw.Queues[nw.Tree.RackDownPort(1).ID]
	nw.Sim.At(6_000_000, down.Fail)
	nw.Sim.At(8_000_000, down.Restore)
	nw.Sim.Run(horizon)

	h := sha256.New()
	done, rtos, segs := 0, 0, int64(0)
	for _, m := range sent {
		fmt.Fprintf(h, "msg %x %d→%d %d sub %d done %d rtos %d\n", m.ID, m.SrcVM, m.DstVM, m.Size, m.Submitted, m.Completed, m.RTOs)
		if m.Completed > 0 {
			done++
		}
		rtos += m.RTOs
	}
	for k, e := range all {
		dsts := make([]int, 0, len(e.conns))
		for d := range e.conns {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			c := e.conns[d]
			fmt.Fprintf(h, "conn %d %d→%d segs %d rto %d fr %d acked %d\n", k, e.VMID, d, c.SegmentsOut, c.RTOCount, c.FastRetx, c.BytesAcked)
			segs += c.SegmentsOut
		}
	}
	var ce, faults int64
	for pid, q := range nw.Queues {
		fmt.Fprintf(h, "port %d %+v\n", pid, q.Stats)
		ce += q.Stats.ECNMarked
		faults += q.Stats.FaultDroppedPkts
	}
	for _, host := range nw.Hosts {
		fmt.Fprintf(h, "host %d fault %d\n", host.ID, host.FaultDropped)
	}
	if done < msgs/2 || rtos == 0 || faults == 0 || (!paced && nw.TotalDrops() == 0) {
		t.Errorf("%s: %d of %d done, %d RTOs, %d drops, %d fault drops: the run does not exercise loss, timeouts and the failure", name, done, len(sent), rtos, nw.TotalDrops(), faults)
	}
	if variant == DCTCP && ce == 0 {
		t.Errorf("%s: no CE marks", name)
	}
	return fmt.Sprintf("%s sha256=%x msgs=%d done=%d rtos=%d segs=%d drops=%d fault_drops=%d ce=%d",
		name, h.Sum(nil)[:8], len(sent), done, rtos, segs, nw.TotalDrops(), faults, ce)
}

// TestTransportDigestGolden pins, bit for bit, what Reno, DCTCP and a
// paced Reno produce over one seeded exchange with a mid-flight
// re-registration and a 2 ms link failure. A change to the packet path
// that keeps the simulation keeps this file; -update rewrites it.
func TestTransportDigestGolden(t *testing.T) {
	got := strings.Join([]string{
		digestRun(t, "reno", Reno, false),
		digestRun(t, "dctcp", DCTCP, false),
		digestRun(t, "paced", Reno, true),
	}, "\n") + "\n"
	path := filepath.Join("testdata", "digest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("digest changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
