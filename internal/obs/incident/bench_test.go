package incident

import (
	"testing"

	"repro/internal/obs"
)

// violatingAudit is the incident plane's observation path: the
// guarantee auditor with its violation tap appending to a slice presized
// for 1<<20 events, for a tenant whose every delivery at 700 µs violates
// its 350 µs bound, so each observation walks the full path — counters,
// tap, append.
func violatingAudit() (*obs.GuaranteeAuditor, *[]obs.ViolationEvent) {
	audit := obs.NewGuaranteeAuditor()
	audit.Admit(1, 350e-6)
	evs := make([]obs.ViolationEvent, 0, 1<<20)
	audit.SetViolationTap(func(ev obs.ViolationEvent) { evs = append(evs, ev) })
	return audit, &evs
}

// The per-packet cost every simulated delivery pays when incident
// correlation is enabled must not allocate.
func TestObservationZeroAllocs(t *testing.T) {
	audit, evs := violatingAudit()
	if allocs := testing.AllocsPerRun(10000, func() {
		audit.ObserveDelivery(1, 1000, 1001, 1e6, 700e3)
	}); allocs != 0 {
		t.Errorf("observation path allocates %.1f allocs/op, want 0", allocs)
	}
	if len(*evs) == 0 {
		t.Error("violation tap never fired")
	}
}

// BenchmarkIncidentOverhead times the observation path
// TestObservationZeroAllocs holds to zero allocations.
func BenchmarkIncidentOverhead(b *testing.B) {
	audit, evs := violatingAudit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i&(1<<20-1) == 0 {
			// Stay inside the presized slice: growth is not the steady
			// state.
			b.StopTimer()
			audit, evs = violatingAudit()
			b.StartTimer()
		}
		audit.ObserveDelivery(1, 1000, 1001, int64(i), 700e3)
	}
	b.StopTimer()
	if len(*evs) == 0 {
		b.Fatal("violation tap never fired")
	}
}
