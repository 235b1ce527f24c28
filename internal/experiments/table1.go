package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pacer"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Table1Seed is the burstiness study's default seed.
const Table1Seed = 7

// The burstiness study (§2.3.1, Table 1): a synthetic application sends
// M-byte messages with Poisson arrivals at average bandwidth B between
// two VMs; a message is late when its latency exceeds the guarantee
// M/B_g + d computed from the tenant's guaranteed bandwidth B_g. The
// paper sizes B so that messages are frequent; here M is 10 KB at
// 100 Mbps offered.
const (
	// table1MsgBytes is M.
	table1MsgBytes = 10_000
	// table1AvgBandwidthBps is B, the offered load.
	table1AvgBandwidthBps = 100 * units.Mbps
	// table1Messages are drawn per cell (tests draw fewer through
	// runTable1).
	table1Messages = 200_000
	// table1BurstRateBps is Bmax (messages within the allowance go at
	// this rate).
	table1BurstRateBps = 1 * units.Gbps
)

// Table1Result holds the percentage of late messages per cell,
// indexed [burstRow][bandwidthCol].
type Table1Result struct {
	// BurstMultiples are the burst rows in messages (1, 3, 5, 7, 9);
	// BandwidthMultiples the guarantee columns (B, 1.4B, ... 3B).
	BurstMultiples     []int
	BandwidthMultiples []float64
	LatePct            [][]float64
}

// RunTable1 sweeps the grid. Messages pass through the {B_g, S} token
// bucket (with burst rate Bmax), exactly as the pacer releases them;
// the message completes when its last byte's release stamp passes plus
// its transmission at the release rate. The in-network term d is
// common to the latency and its guarantee, so it cancels.
func RunTable1(seed uint64) Table1Result {
	return runTable1(seed, table1Messages)
}

// runTable1 sweeps the grid drawing messages per cell.
func runTable1(seed uint64, messages int) Table1Result {
	res := Table1Result{
		BurstMultiples:     []int{1, 3, 5, 7, 9},
		BandwidthMultiples: []float64{1, 1.4, 1.8, 2.2, 2.6, 3},
	}
	for _, burstMult := range res.BurstMultiples {
		var row []float64
		for _, bwMult := range res.BandwidthMultiples {
			row = append(row, table1Cell(seed, messages, bwMult, burstMult))
		}
		res.LatePct = append(res.LatePct, row)
	}
	return res
}

func table1Cell(seed uint64, messages int, bwMult float64, burstMult int) float64 {
	rng := stats.NewRand(seed + uint64(burstMult)*1000 + uint64(bwMult*100))
	gen := workload.NewPoissonMessages(table1MsgBytes, table1AvgBandwidthBps, rng, 0)

	bg := bwMult * table1AvgBandwidthBps
	s := float64(burstMult * table1MsgBytes)
	vm := pacer.NewVM(1, pacer.Guarantee{
		BandwidthBps: bg,
		BurstBytes:   s,
		BurstRateBps: table1BurstRateBps,
		MTUBytes:     units.MTUBytes,
	}, 0)

	// Guarantee checked by §2.3.1 (which predates the Bmax refinement):
	// a message should finish within M/B_g + d; d is common to both
	// sides and cancels.
	bound := int64(table1MsgBytes / bg * 1e9)

	late := 0
	const horizon = int64(1) << 62
	for i := 0; i < messages; i++ {
		at := gen.Next()
		// Fragment the message through the bucket chain; completion is
		// the last fragment's release plus its wire time at Bmax.
		fragments := 0
		remaining := table1MsgBytes
		for remaining > 0 {
			n := remaining
			if n > units.MTUBytes {
				n = units.MTUBytes
			}
			vm.Enqueue(at, 2, n, nil)
			remaining -= n
			fragments++
		}
		// Drain through the chronological scheduler, exactly as the
		// batcher would; the stamps are what matters.
		vm.Schedule(horizon)
		var lastRelease int64
		lastSize := 0
		for {
			pk, ok := vm.PopReady(horizon)
			if !ok {
				break
			}
			lastRelease = pk.Release
			lastSize = pk.Bytes
		}
		// Completion: the last fragment's release (transmission start)
		// plus its own wire time at the burst rate. Free rounds each
		// release up by < 1 ns; allow that slack.
		wire := int64(float64(lastSize) / table1BurstRateBps * 1e9)
		latency := lastRelease + wire - at
		if latency > bound+int64(fragments) {
			late++
		}
	}
	return 100 * float64(late) / float64(messages)
}

// Render formats the result like the paper's Table 1.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "burst\\bw")
	for _, m := range r.BandwidthMultiples {
		fmt.Fprintf(&b, "%8.1fB", m)
	}
	b.WriteString("\n")
	for i, bm := range r.BurstMultiples {
		fmt.Fprintf(&b, "%7dM", bm)
		for _, v := range r.LatePct[i] {
			fmt.Fprintf(&b, "%9.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
