package experiments

import (
	"testing"

	"repro/internal/obs"
)

// The flight recorder's sampling cost on a whole packet-level figure:
// go run ./benchmark times the system end to end and all.golden pins
// every figure, but no benchmark row compares traced with untraced runs
// yet.
//
//	go test -run '^$' -bench Fig5Sim ./internal/experiments

// benchFig5Sim runs the packet-level Figure-5 companion at a given
// flight-recorder sampling divisor (0 = tracing off).
func benchFig5Sim(b *testing.B, sampleN int) {
	for i := 0; i < b.N; i++ {
		sc := mustScenarios(b, "fig5")[0]
		sc.Planes.TraceSampleN = sampleN
		run, err := RunFigure5Sim(sc)
		if err != nil {
			b.Fatal(err)
		}
		if drops := run.Net.TotalDrops(); drops != 0 {
			b.Fatalf("drops = %d, want 0", drops)
		}
		b.ReportMetric(float64(run.Tenants[0].Messages), "messages")
		if sampleN > 0 {
			b.ReportMetric(float64(obs.SummarizeFlight(run.Spans).Complete), "spans")
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
