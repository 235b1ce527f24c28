package experiments

import "testing"

// The figure benchmarks that run a shortened figure live here, beside
// the unexported runners and Scenario fields they shorten; the root
// bench_test.go holds the rest.
//
//	go test -run '^$' -bench . ./internal/experiments

// BenchmarkTable1Lateness regenerates Table 1: % late messages vs
// bandwidth multiple × burst allowance, 20,000 messages per cell.
func BenchmarkTable1Lateness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runTable1(Table1Seed, 20000)
		b.ReportMetric(r.LatePct[0][0], "late-1M-1B-%")
		b.ReportMetric(r.LatePct[3][2], "late-7M-1.8B-%")
	}
}

// benchFig5Sim runs the packet-level Figure-5 companion at a given
// flight-recorder sampling divisor (0 = tracing off).
func benchFig5Sim(b *testing.B, sampleN int) {
	for i := 0; i < b.N; i++ {
		sc := figure5SimScenario(Figure5SimParams{})
		sc.Planes.TraceSampleN = sampleN
		r, err := runFigure5Sim(sc)
		if err != nil {
			b.Fatal(err)
		}
		if r.Drops != 0 {
			b.Fatalf("drops = %d, want 0", r.Drops)
		}
		b.ReportMetric(float64(r.Messages), "messages")
		if sampleN > 0 {
			b.ReportMetric(float64(r.Flight.Complete), "spans")
		}
	}
}

// BenchmarkFig5SimBaseline is the tracing-off control for the flight
// recorder overhead comparison (see BenchmarkFig5SimTraced1in64):
// the Figure-5 worst-case burst scenario simulated packet by packet.
func BenchmarkFig5SimBaseline(b *testing.B) { benchFig5Sim(b, 0) }

// BenchmarkFig5SimTraced1in64 runs the same simulation with the
// flight recorder attached at the production sampling rate (1 in 64
// packets). The acceptance bar is ≤5% ns/op overhead vs baseline.
func BenchmarkFig5SimTraced1in64(b *testing.B) { benchFig5Sim(b, 64) }

// BenchmarkFig5SimTracedAll traces every packet — the worst-case
// recorder cost, used for Figure-5 attribution summaries.
func BenchmarkFig5SimTracedAll(b *testing.B) { benchFig5Sim(b, 1) }

// BenchmarkFig10Pacer regenerates Figure 10: pacer throughput split
// and per-frame cost across rate limits, 10 ms paced per point.
func BenchmarkFig10Pacer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runFigure10(0.01)
		b.ReportMetric(rows[0].VoidGbps, "void-at-1G-Gbps")
		b.ReportMetric(rows[8].PacketsPerSec/1e6, "frames-at-9G-M/s")
	}
}

// BenchmarkFig15Admittance regenerates Figure 15: admitted tenants at
// 75% and 90% occupancy under the three placers, over 400 s.
func BenchmarkFig15Admittance(b *testing.B) {
	b.ReportAllocs()
	p := DefaultScaleParams()
	p.durationSec = 400
	for i := 0; i < b.N; i++ {
		pts, err := RunFigure15(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Placer == "silo" && pt.Occupancy == 0.9 {
				b.ReportMetric(100*pt.Result.AdmittedFrac(), "silo-admit-90-%")
			}
			if pt.Placer == "locality" && pt.Occupancy == 0.9 {
				b.ReportMetric(100*pt.Result.AdmittedFrac(), "locality-admit-90-%")
			}
		}
	}
}

// BenchmarkFig16Utilization regenerates Figure 16a: network
// utilization vs occupancy, over 400 s.
func BenchmarkFig16Utilization(b *testing.B) {
	b.ReportAllocs()
	p := DefaultScaleParams()
	p.durationSec = 400
	for i := 0; i < b.N; i++ {
		pts, err := RunFigure16a(p, []float64{0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Occupancy == 0.9 && pt.Placer == "silo" {
				b.ReportMetric(100*pt.Result.AvgUtilization, "silo-util-90-%")
			}
		}
	}
}
