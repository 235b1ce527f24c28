// Package introspect is Silo's introspection plane: it continuously
// compares what the running system does against what the network
// calculus admitted.
//
// Three instruments share the package:
//
//   - VMEstimator fits a minimal token-bucket envelope to each VM's
//     observed emission stream (wire frames at their release stamps
//     for paced VMs, NIC arrivals for unpaced ones) and flags
//     envelope-vs-admitted-{B, S} slack or violation;
//   - per-port watches record backlog high-water marks and busy-period
//     lengths at every simulated queue, compared against the backlog
//     and busy-period bounds re-derived from the placement manager's
//     admitted aggregate (the "guarantee margin" — margin ≤ 0 means
//     the model was wrong or a fault loosened it);
//   - Snapshot/Render join both into one deterministic report, which
//     the CLIs export as JSON for silo-inspect trace's -why drill-down.
//
// Every hot-path tap is allocation-free, and a snapshot is a pure
// function of the simulation, so it is byte-identical from run to run.
package introspect

// Envelope is a token-bucket traffic contract {rate B, burst S}: the
// source may emit at most B·t + S bytes in any interval of length t.
type Envelope struct {
	RateBps    float64 `json:"rate_bps"`
	BurstBytes float64 `json:"burst_bytes"`
}

// VMEstimator fits the minimal token-bucket envelope to an observed
// emission stream, streaming and allocation-free.
//
// The fit is the classic virtual-queue (max-plus) construction: drain
// the observed bytes through a virtual queue at the admitted rate B;
// the running maximum of that queue's level is exactly the minimal
// burst S* for which {B, S*} upper-bounds the stream. Comparing S*
// against the admitted S therefore answers "did this VM stay inside
// its admitted envelope" without storing the stream.
type VMEstimator struct {
	VMID     int
	TenantID int
	Admitted Envelope

	epochNs int64
	// tolBytes pads the envelope-violation check: the pacer's bucket
	// admits at least one frame even when S is smaller, so a frame of
	// tolerance avoids flagging conforming VMs.
	tolBytes float64
	// paced: fed from EvPacedWire, not from NIC arrivals.
	paced bool

	started bool
	firstNs int64
	lastNs  int64

	level    float64 // virtual queue drained at Admitted.RateBps
	maxLevel float64 // running max = minimal burst at the admitted rate
	total    float64
	count    int64

	// Sliding-epoch fit: rate and max level over the most recently
	// closed non-empty epoch, for "what is it doing right now" gauges.
	epochStart int64
	epochBytes float64
	epochMax   float64
	prevRate   float64
	prevBurst  float64
	epochs     int64
}

// Observe feeds one emission (nowNs, bytes) to the estimator.
// Timestamps must be nondecreasing — both feeds (a paced VM's wire
// frames, whose release stamps leave in order, and NIC arrivals)
// produce them in order. O(1), no allocations.
func (e *VMEstimator) Observe(nowNs int64, bytes int) {
	if !e.started {
		e.started = true
		e.firstNs, e.lastNs, e.epochStart = nowNs, nowNs, nowNs
	}
	if dt := nowNs - e.lastNs; dt > 0 {
		e.level -= e.Admitted.RateBps * float64(dt) / 1e9
		if e.level < 0 {
			e.level = 0
		}
		e.lastNs = nowNs
	}
	if d := nowNs - e.epochStart; d >= e.epochNs {
		e.rollEpochs(d / e.epochNs)
	}
	b := float64(bytes)
	e.level += b
	e.total += b
	e.count++
	e.epochBytes += b
	if e.level > e.maxLevel {
		e.maxLevel = e.level
	}
	if e.level > e.epochMax {
		e.epochMax = e.level
	}
}

// rollEpochs closes n elapsed epochs in O(1): the first closing epoch
// carries this window's stats; any further skipped epochs were empty
// and leave the last non-empty fit in place.
func (e *VMEstimator) rollEpochs(n int64) {
	if e.epochBytes > 0 {
		e.prevRate = e.epochBytes * 1e9 / float64(e.epochNs)
		e.prevBurst = e.epochMax
	}
	e.epochs += n
	e.epochStart += n * e.epochNs
	e.epochBytes = 0
	e.epochMax = e.level
}

// VMEnvelope is the estimator's exported snapshot.
type VMEnvelope struct {
	VMID     int `json:"vm"`
	TenantID int `json:"tenant"`

	AdmittedRateBps    float64 `json:"admitted_rate_bps"`
	AdmittedBurstBytes float64 `json:"admitted_burst_bytes"`

	// FittedRateBps is the stream's long-run average rate;
	// FittedBurstBytes is the minimal burst that, at the admitted
	// rate, envelopes everything observed.
	FittedRateBps    float64 `json:"fitted_rate_bps"`
	FittedBurstBytes float64 `json:"fitted_burst_bytes"`

	// Epoch* cover the most recently closed non-empty epoch.
	EpochRateBps    float64 `json:"epoch_rate_bps"`
	EpochBurstBytes float64 `json:"epoch_burst_bytes"`
	Epochs          int64   `json:"epochs"`

	Emissions  int64   `json:"emissions"`
	TotalBytes float64 `json:"total_bytes"`

	// Slack is admitted minus fitted: positive means the VM runs
	// inside its contract (renegotiable headroom), negative burst
	// slack beyond tolerance means the envelope was violated.
	RateSlackBps    float64 `json:"rate_slack_bps"`
	BurstSlackBytes float64 `json:"burst_slack_bytes"`
	Violated        bool    `json:"violated"`
}

// Snapshot exports the current fit without disturbing the stream.
func (e *VMEstimator) Snapshot() VMEnvelope {
	env := VMEnvelope{
		VMID:               e.VMID,
		TenantID:           e.TenantID,
		AdmittedRateBps:    e.Admitted.RateBps,
		AdmittedBurstBytes: e.Admitted.BurstBytes,
		FittedBurstBytes:   e.maxLevel,
		EpochRateBps:       e.prevRate,
		EpochBurstBytes:    e.prevBurst,
		Epochs:             e.epochs,
		Emissions:          e.count,
		TotalBytes:         e.total,
	}
	env.FittedRateBps = e.fittedRate()
	env.RateSlackBps = e.Admitted.RateBps - env.FittedRateBps
	env.BurstSlackBytes = e.Admitted.BurstBytes - env.FittedBurstBytes
	env.Violated = e.violated()
	return env
}

// fittedRate is the stream's long-run average rate (0 before two
// distinct emission times).
func (e *VMEstimator) fittedRate() float64 {
	if e.lastNs > e.firstNs {
		return e.total * 1e9 / float64(e.lastNs-e.firstNs)
	}
	return 0
}

// violated reports whether the fitted burst exceeds the admitted one
// beyond tolerance.
func (e *VMEstimator) violated() bool {
	return e.maxLevel > e.Admitted.BurstBytes+e.tolBytes
}
