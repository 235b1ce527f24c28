package incident

import (
	"testing"

	"repro/internal/obs"
)

// violatingAudit is the incident plane's observation path: the
// guarantee auditor with its violation tap wired into a ViolationLog,
// for a tenant whose every delivery at 700 µs violates its 350 µs
// bound, so each observation walks the full path — counters,
// histogram, tap, append.
func violatingAudit() (*obs.GuaranteeAuditor, *obs.ViolationLog) {
	audit := obs.NewGuaranteeAuditor(nil)
	audit.Admit(1, 500e6, 15e3, 350e-6)
	log := obs.NewViolationLog(1 << 20)
	audit.SetViolationTap(log.Observe)
	return audit, log
}

// The per-packet cost every simulated delivery pays when incident
// correlation is enabled must not allocate.
func TestObservationZeroAllocs(t *testing.T) {
	audit, log := violatingAudit()
	if allocs := testing.AllocsPerRun(10000, func() {
		audit.ObserveDelivery(1, 1000, 1001, 1e6, 700e3)
	}); allocs != 0 {
		t.Errorf("observation path allocates %.1f allocs/op, want 0", allocs)
	}
	if log.Len() == 0 {
		t.Error("violation tap never fired")
	}
}

// BenchmarkIncidentOverhead times the observation path
// TestObservationZeroAllocs holds to zero allocations.
func BenchmarkIncidentOverhead(b *testing.B) {
	audit, log := violatingAudit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			// Stay inside the preallocated buffer: a real run sizes the
			// log for its horizon; growth is not the steady state.
			log.Reset()
		}
		audit.ObserveDelivery(1, 1000, 1001, int64(i), 700e3)
	}
	b.StopTimer()
	if log.Len() == 0 {
		b.Fatal("violation tap never fired")
	}
}
