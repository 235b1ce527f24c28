package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pacer"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Table1Params configures the burstiness study (§2.3.1, Table 1): a
// synthetic application sends M-byte messages with Poisson arrivals at
// average bandwidth B between two VMs; a message is late when its
// latency exceeds the guarantee M/B_g + d computed from the tenant's
// guaranteed bandwidth B_g.
type Table1Params struct {
	// MsgBytes is M.
	MsgBytes int
	// AvgBandwidthBps is B, the offered load.
	AvgBandwidthBps float64
	// BandwidthMultiples are the guarantee columns (B, 1.4B, ... 3B).
	BandwidthMultiples []float64
	// BurstMultiples are the burst rows in messages (1, 3, 5, 7, 9).
	BurstMultiples []int
	// Messages drawn per cell.
	Messages int
	// BurstRateBps is Bmax (messages within the allowance go at this
	// rate).
	BurstRateBps float64
	Seed         uint64
}

// DefaultTable1Params mirrors the paper's sweep: the paper uses
// message size M with B sized so that messages are frequent; we use
// 10 KB messages at 100 Mbps offered.
func DefaultTable1Params() Table1Params {
	return Table1Params{
		MsgBytes:           10_000,
		AvgBandwidthBps:    100 * units.Mbps,
		BandwidthMultiples: []float64{1, 1.4, 1.8, 2.2, 2.6, 3},
		BurstMultiples:     []int{1, 3, 5, 7, 9},
		Messages:           200_000,
		BurstRateBps:       1 * units.Gbps,
		Seed:               7,
	}
}

// Table1Result holds the percentage of late messages per cell,
// indexed [burstRow][bandwidthCol].
type Table1Result struct {
	Params  Table1Params
	LatePct [][]float64
}

// RunTable1 sweeps the grid. Messages pass through the {B_g, S} token
// bucket (with burst rate Bmax), exactly as the pacer releases them;
// the message completes when its last byte's release stamp passes plus
// its transmission at the release rate. The in-network term d is
// common to the latency and its guarantee, so it cancels.
func RunTable1(p Table1Params) Table1Result {
	res := Table1Result{Params: p}
	for _, burstMult := range p.BurstMultiples {
		var row []float64
		for _, bwMult := range p.BandwidthMultiples {
			row = append(row, table1Cell(p, bwMult, burstMult))
		}
		res.LatePct = append(res.LatePct, row)
	}
	return res
}

func table1Cell(p Table1Params, bwMult float64, burstMult int) float64 {
	rng := stats.NewRand(p.Seed + uint64(burstMult)*1000 + uint64(bwMult*100))
	gen := workload.NewPoissonMessages(p.MsgBytes, p.AvgBandwidthBps, rng, 0)

	bg := bwMult * p.AvgBandwidthBps
	s := float64(burstMult * p.MsgBytes)
	vm := pacer.NewVM(1, pacer.Guarantee{
		BandwidthBps: bg,
		BurstBytes:   s,
		BurstRateBps: p.BurstRateBps,
		MTUBytes:     units.MTUBytes,
	}, 0)

	// Guarantee checked by §2.3.1 (which predates the Bmax refinement):
	// a message should finish within M/B_g + d; d is common to both
	// sides and cancels.
	bound := int64(float64(p.MsgBytes) / bg * 1e9)

	late := 0
	const horizon = int64(1) << 62
	for i := 0; i < p.Messages; i++ {
		at := gen.Next()
		// Fragment the message through the bucket chain; completion is
		// the last fragment's release plus its wire time at Bmax.
		fragments := 0
		remaining := p.MsgBytes
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
		wire := int64(float64(lastSize) / p.BurstRateBps * 1e9)
		latency := lastRelease + wire - at
		if latency > bound+int64(fragments) {
			late++
		}
	}
	return 100 * float64(late) / float64(p.Messages)
}

// Render formats the result like the paper's Table 1.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "burst\\bw")
	for _, m := range r.Params.BandwidthMultiples {
		fmt.Fprintf(&b, "%8.1fB", m)
	}
	b.WriteString("\n")
	for i, bm := range r.Params.BurstMultiples {
		fmt.Fprintf(&b, "%7dM", bm)
		for _, v := range r.LatePct[i] {
			fmt.Fprintf(&b, "%9.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
