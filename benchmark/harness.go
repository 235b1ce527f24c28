package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what one workload run is given: the seed its inputs are made
// from, the host seconds its measured region is sized for, and the
// tracer (nil on the untraced pass, so end-to-end numbers carry no
// tracing cost).
type env struct {
	seed    uint64
	seconds float64
	tr      *tracer
	// outDir takes span files, profiles and CLI artifacts.
	outDir string
}

// traced reports whether this is the per-layer pass.
func (e *env) traced() bool { return e.tr != nil }

// span is one call from the benchmark into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at the root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A
// nil tracer records nothing, so call sites need no branch.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// selfSeconds sums, per span name, each span's duration minus the part
// its child spans cover.
func selfSeconds(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return out
}

// totalSeconds sums span durations per name.
func totalSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentile picks the highest of p99.9, p99, p95, p90 that has at
// least ten of n samples beyond its nearest rank, falling back to the
// median. A p99 read from fewer samples is one or two outliers.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// stratifiedExp returns n exponential variates of the given mean, one
// from each of n equal-probability strata, in an order the generator
// picks. Every seed therefore offers the same multiset of values and
// differs only in their order, which keeps run-to-run spread across
// seeds down to what the system adds.
func stratifiedExp(rng *rand.Rand, n int, mean float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = -mean * math.Log(1-(float64(i)+0.5)/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuSeconds is the CPU time this process has used so far, user plus
// system, every thread. Regions and set-ups are timed on this clock,
// not on the wall: for minutes at a time the reference container's host
// takes 40-70 % of its CPU away (steal), wall time then reads two to
// eight times longer, and stolen time is not charged to the process.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// childCPUSeconds is the same clock for the children this process has
// started and waited for: what an external workload is timed on.
func childCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_CHILDREN) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err)) // cannot fail with these arguments
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// The reference kernel. The host this runs on slows everything down by
// a factor of two and more for minutes at a time (its other tenants),
// and the process CPU clock slows with it. The kernel is a fixed piece
// of integer arithmetic that touches no memory, timed on the same clock
// right before and after every measured region; CPU seconds are then
// expressed in the seconds the kernel says a quiet reference container
// would have needed (refNominalS). On a quiet container the factor is
// 1; on a crowded one it is what keeps two runs of the same code
// comparable. (A kernel that also walked memory was tried: it is
// noisier than the workloads it is meant to steady.)
const (
	refSteps = 80_000_000
	// refNominalS is the kernel's CPU time on the quiet 2-core
	// reference container.
	refNominalS = 0.115
)

var refSink uint64

// refSeconds runs the reference kernel once and returns its CPU time.
func refSeconds() float64 {
	c0 := cpuSeconds()
	acc := refSink | 1
	for i := 0; i < refSteps; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	refSink = acc
	return cpuSeconds() - c0
}

// memDelta is what the Go runtime did across the measured region.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseMs      float64
	heapPeakMB     float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs:    b.Mallocs - a.Mallocs,
		bytes:      b.TotalAlloc - a.TotalAlloc,
		gcCycles:   b.NumGC - a.NumGC,
		gcPauseMs:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
		heapPeakMB: float64(b.HeapSys-b.HeapReleased) / (1 << 20),
	}
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// outcome is what a workload hands back to the harness.
type outcome struct {
	// attempted and failed count the workload's own operations
	// (messages, packets, requests, arrivals); failures lists why.
	attempted, failed int64
	failures          []string
	// notes are findings worth printing that fail nothing.
	notes []string
	// ops is the work done in the measured region, in the workload's op;
	// latN is how many latency samples stand behind the *_p50_us and
	// *_p99_us layer metrics.
	ops  int64
	latN int
	// childRSSMB, when positive, is the peak resident set of the child
	// process that did the work (sim_obs), reported in place of the
	// harness's own.
	childRSSMB float64
	// digest hashes what the workload computed: the simulated behaviour
	// of the packet-level workloads, the admission decisions of the
	// placement ones; "" for sim_obs, whose work is in a child.
	digest string
	// layer holds per-layer counters read at the span boundaries.
	layer map[string]float64
}

func (o *outcome) fail(n int64, format string, a ...interface{}) {
	o.failed += n
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, a...))
	}
}
