// Package obs is the repository's guarantee-audit layer: the
// per-tenant delay audit, the violation event, the flight recorder with
// its Chrome-trace encoder, and the provenance every artifact carries.
// It reads the packet simulator through netsim's observation spine
// (AttachDelayAudit, AttachFlightRecorder), and nothing in the engine or
// the pacer imports it; its subscribers sit on the nanosecond-scale
// delivery and wire paths.
//
// Design rules, in order:
//
//  1. Zero allocations per observation. Per-tenant state is allocated
//     when the tenant is admitted and a flight ring grows only when it
//     fills; recording a packet touches plain fields
//     (TestEnabledPathZeroAllocs, TestFlightEmitZeroAlloc).
//  2. Pay for what is attached. A plane a run does not ask for is a nil
//     pointer: a nil *GuaranteeAuditor or *FlightRecorder is valid and
//     every method on it costs one branch, so instrumented code needs
//     no build tags and no wrapper interfaces
//     (TestDisabledPathZeroAllocs).
//  3. One goroutine. Every plane — auditor, flight recorder, window
//     tick, incident correlation — is written and read on the
//     goroutine that drives the run (the simulation's, or an offline
//     tool's), and is read from a run's artifacts after it. Nothing here locks or uses
//     atomics, and nothing here is safe for concurrent use.
package obs
