package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/pacer"
	"repro/internal/units"
)

// Figure10Row is one rate-limit point of the pacer microbenchmark
// (paper Figure 10): the data/void throughput split and the CPU cost
// of batch construction at that rate.
type Figure10Row struct {
	RateGbps float64
	// DataGbps and VoidGbps split the wire throughput.
	DataGbps, VoidGbps float64
	// PacketsPerSec is the total frame rate (data + void), the
	// quantity the paper's CPU usage tracks.
	PacketsPerSec float64
	// NsPerPacket is the measured cost of pacing per frame (batch
	// construction amortized), the CPU-usage proxy.
	NsPerPacket float64
	// NsPerDataPacket amortizes over data frames only.
	NsPerDataPacket float64
	// Gate split: the fraction of data frames whose release the {B, S}
	// bucket and the Bmax cap set (pacer Gate* attribution). A
	// backlogged VM is gated by the {B, S} bucket almost always; the
	// residue is the Bmax cap and the burst head.
	PctGateAvg, PctGateCap float64
	// MeanTokenWaitUs is the mean enqueue-to-release pacing delay per
	// data frame.
	MeanTokenWaitUs float64
}

// The pacer sweep mirrors the paper's: rate limits of 1..10 Gbps on a
// 10 GbE NIC, MTU data frames.
const (
	fig10LineRateBps = 10 * units.Gbps
	// fig10WireSeconds of traffic are paced per point (tests pace less
	// through runFigure10).
	fig10WireSeconds  = 0.05
	fig10PayloadBytes = units.MTUBytes
)

// RunFigure10 measures the pacer's real code path: it builds batches
// for a backlogged VM at each rate limit and reports throughput split
// and per-frame cost in wall-clock nanoseconds.
func RunFigure10() []Figure10Row {
	return runFigure10(fig10WireSeconds)
}

// runFigure10 paces wireSeconds of traffic per rate limit.
func runFigure10(wireSeconds float64) []Figure10Row {
	var rows []Figure10Row
	for _, rl := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		rows = append(rows, figure10Point(rl, wireSeconds))
	}
	return rows
}

func figure10Point(rateGbps, wireSeconds float64) Figure10Row {
	rate := rateGbps * units.Gbps
	horizonNs := int64(wireSeconds * 1e9)
	// Number of data frames the rate limit admits over the horizon.
	nData := int(rate * wireSeconds / fig10PayloadBytes)

	vm := pacer.NewVM(1, pacer.Guarantee{
		BandwidthBps: rate,
		BurstBytes:   fig10PayloadBytes,
		BurstRateBps: 0,
		MTUBytes:     fig10PayloadBytes,
	}, 0)
	b := pacer.NewBatcher(fig10LineRateBps)

	start := time.Now()
	for i := 0; i < nData; i++ {
		vm.Enqueue(0, 2, fig10PayloadBytes, nil)
	}
	var dataBytes, voidBytes, frames, dataFrames int64
	var gateCount [4]int64
	var tokenWaitNs int64
	var cursor int64
	for cursor < horizonNs {
		batch := b.Build(cursor, []*pacer.VM{vm})
		if len(batch.Packets) == 0 {
			break
		}
		dataBytes += int64(batch.DataBytes)
		voidBytes += int64(batch.VoidBytes)
		frames += int64(len(batch.Packets))
		dataFrames += int64(batch.DataPackets())
		for _, fp := range batch.Packets {
			if fp.Void {
				continue
			}
			gateCount[fp.Gate]++
			tokenWaitNs += fp.Release - fp.EnqueuedAt()
		}
		cursor = batch.End
	}
	elapsed := time.Since(start)

	wireSec := float64(cursor) / 1e9
	if wireSec == 0 {
		wireSec = wireSeconds
	}
	row := Figure10Row{
		RateGbps: rateGbps,
		DataGbps: float64(dataBytes) * 8 / wireSec / 1e9,
		VoidGbps: float64(voidBytes) * 8 / wireSec / 1e9,
	}
	if frames > 0 {
		row.PacketsPerSec = float64(frames) / wireSec
		row.NsPerPacket = float64(elapsed.Nanoseconds()) / float64(frames)
	}
	if dataFrames > 0 {
		row.NsPerDataPacket = float64(elapsed.Nanoseconds()) / float64(dataFrames)
		n := float64(dataFrames)
		row.PctGateAvg = 100 * float64(gateCount[pacer.GateAvg]) / n
		row.PctGateCap = 100 * float64(gateCount[pacer.GateCap]) / n
		row.MeanTokenWaitUs = float64(tokenWaitNs) / n / 1e3
	}
	return row
}

// RenderFigure10 formats the sweep as the paper's two panels.
func RenderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %10s %12s %12s %14s %8s %8s %10s\n",
		"limit(Gb)", "data(Gb)", "void(Gb)", "frames/s", "ns/frame", "ns/data-frame", "avg%", "cap%", "wait(µs)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.1f %10.2f %10.2f %12.3g %12.1f %14.1f %8.1f %8.1f %10.2f\n",
			r.RateGbps, r.DataGbps, r.VoidGbps, r.PacketsPerSec, r.NsPerPacket, r.NsPerDataPacket,
			r.PctGateAvg, r.PctGateCap, r.MeanTokenWaitUs)
	}
	return b.String()
}
