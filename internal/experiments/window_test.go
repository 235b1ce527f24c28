package experiments

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestFinishClosesPartialWindow: Finish closes the window from the last
// tick to the end of the run, so the SLO counts every delivery the
// auditor counted. A 7 ms window leaves 4 ms of the drill's 60 ms
// unticked; a cancelled run stops between ticks; a 1 ms window divides
// the run and leaves nothing to close.
func TestFinishClosesPartialWindow(t *testing.T) {
	for _, c := range []struct {
		name     string
		windowNs int64
		cancelAt int64 // 0: run to the end
		extra    int64 // windows closed by Finish
	}{
		{"window does not divide the run", 7e6, 0, 1},
		{"cancelled run", 1e6, 30_500_000, 1},
		{"window divides the run", 1e6, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultFailureDrillParams()
			p.WindowNs = c.windowNs
			sc := drillScenario(p)
			sc.Planes.Series = true
			run, err := Build(sc, Env{Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt > 0 {
				run.Net.Sim.At(c.cancelAt, cancel)
			}
			run.Execute(ctx)
			run.Finish()

			now := run.Net.Sim.Now()
			if c.cancelAt > 0 && (now >= sc.HorizonNs || now%c.windowNs == 0) {
				t.Fatalf("the cancelled run stopped at %dns, want between two ticks before %dns", now, sc.HorizonNs)
			}
			ticks := now / c.windowNs
			if got, want := run.SLO.Windows, ticks+c.extra; got != want {
				t.Errorf("%d windows closed, want %d ticks + %d", got, ticks, c.extra)
			}
			if times := run.Rollup.Snapshot().TimesNs; int64(len(times)) != ticks+c.extra || times[len(times)-1] != now {
				t.Errorf("rollup captures %d, last at %dns; want %d, last at %dns",
					len(times), times[len(times)-1], ticks+c.extra, now)
			}
			if len(run.SLO.Reports) != p.Tenants {
				t.Fatalf("%d SLO reports, want %d", len(run.SLO.Reports), p.Tenants)
			}
			lastStart := (ticks - 1 + c.extra) * c.windowNs
			for _, r := range run.SLO.Reports {
				pts := run.SLO.Points(r.ID)
				if last := pts[len(pts)-1]; last.StartNs != lastStart || last.EndNs != now {
					t.Errorf("tenant %d: last window [%d,%d], want [%d,%d]",
						r.ID, last.StartNs, last.EndNs, lastStart, now)
				}
				ta, _ := run.Audit.Tenant(r.ID)
				if r.Delivered != ta.Packets.Value() || r.Violated != ta.Violations.Value() {
					t.Errorf("tenant %d: SLO delivered=%d violated=%d, auditor packets=%d violations=%d",
						r.ID, r.Delivered, r.Violated, ta.Packets.Value(), ta.Violations.Value())
				}
			}
		})
	}
}
