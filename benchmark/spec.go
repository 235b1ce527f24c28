package main

// This file is the benchmark's vocabulary. BENCHMARK.json at the root
// of the repository repeats it for the driver; spec_test.go fails when
// the two disagree.

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
	// quickSeconds sizes every workload to well under a second.
	quickSeconds = 0.25
	// regionsPerRun is how often one run sets a workload up and
	// measures it; each region is sized for seconds/regionsPerRun and
	// the run reports medians over them.
	regionsPerRun = 3
	// A run also sets the workload up only to time it, at least
	// minSetupSamples times and then until setupSampleSeconds have gone
	// or maxSetupSamples are in: set-up takes from 30 us to 100 ms, and
	// the short ones need many samples before their median holds still.
	minSetupSamples    = 15
	maxSetupSamples    = 200
	setupSampleSeconds = 0.5
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is reported by every workload on the untraced pass. What
// one op is is a property of the workload; see workloadDef and
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_cpu_s", "op/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// cpuLayers are the modules a CPU sample can be charged to: the
// repository's layers, the benchmark's own generator ("workload", which
// also takes internal packages that are not a layer of their own) and
// the Go runtime for samples with no repository frame at all.
var cpuLayers = []string{"topology", "netcal", "placement", "pacer", "netsim", "transport", "flowsim", "stats", "workload", "runtime"}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer is reported by every workload on the traced pass; a layer a
// workload does not touch reads 0 there, which is the isolation the
// workloads were chosen for.
var perLayer = func() []layerDef {
	var out []layerDef
	for _, l := range cpuLayers {
		out = append(out, layerDef{l + ".cpu_s", "s", "lower"}, layerDef{l + ".cpu_frac", "ratio", "lower"})
	}
	return append(out, []layerDef{
		{"netsim.pkt_hops", "count", "higher"},
		{"netsim.events", "count", "lower"},
		{"netsim.events_per_hop", "ratio", "lower"},
		{"netsim.run_ns_per_hop", "ns", "lower"},
		{"netsim.drops", "count", "lower"},
		{"netsim.queue_hwm_bytes", "B", "lower"},
		{"netsim.wheel_hwm", "count", "lower"},
		{"netsim.far_hwm", "count", "lower"},
		{"netsim.ev_freelist_hit_frac", "ratio", "higher"},
		{"netsim.pkt_arena_hit_frac", "ratio", "higher"},
		{"netsim.build_s", "s", "lower"},
		{"pacer.data_frames", "count", "higher"},
		{"pacer.void_frames", "count", "lower"},
		{"pacer.void_frac", "ratio", "lower"},
		{"pacer.cpu_ns_per_frame", "ns", "lower"},
		{"pacer.build_ns_per_frame", "ns", "lower"},
		{"pacer.hose_allocate_us", "us", "lower"},
		{"transport.msgs", "count", "higher"},
		{"transport.rto_msg_frac", "ratio", "lower"},
		{"transport.cpu_ns_per_msg", "ns", "lower"},
		{"transport.msg_p50_us", "sim-us", "lower"},
		{"transport.msg_p99_us", "sim-us", "lower"},
		{"placement.accepts", "count", "higher"},
		{"placement.rejects", "count", "lower"},
		{"placement.removes", "count", "higher"},
		{"placement.accepted_frac", "ratio", "higher"},
		{"placement.admit_p50_us", "us", "lower"},
		{"placement.admit_p99_us", "us", "lower"},
		{"placement.accept_us_mean", "us", "lower"},
		{"placement.reject_us_mean", "us", "lower"},
		{"placement.reject_time_frac", "ratio", "lower"},
		{"placement.remove_us_mean", "us", "lower"},
		{"placement.remove_us_p99", "us", "lower"},
		{"placement.scope_server_us_mean", "us", "lower"},
		{"placement.scope_rack_us_mean", "us", "lower"},
		{"placement.scope_pod_us_mean", "us", "lower"},
		{"placement.scope_dc_us_mean", "us", "lower"},
		{"placement.allocs_per_place", "count", "lower"},
		{"placement.bytes_per_place", "B", "lower"},
		{"netcal.queuebound_tb_ns", "ns", "lower"},
		{"netcal.queuebound_curve_ns", "ns", "lower"},
		{"netcal.hose_aggregate_ns", "ns", "lower"},
		{"topology.new_s", "s", "lower"},
		{"topology.path_ns", "ns", "lower"},
		{"flowsim.arrivals", "count", "higher"},
		{"flowsim.jobs_done", "count", "higher"},
		{"flowsim.run_s", "s", "lower"},
		{"obs.bare_cpu_s", "s", "lower"},
		{"obs.trace.overhead_frac", "ratio", "lower"},
		{"obs.slo.overhead_frac", "ratio", "lower"},
		{"obs.series.overhead_frac", "ratio", "lower"},
		{"obs.incidents.overhead_frac", "ratio", "lower"},
		{"obs.introspect.overhead_frac", "ratio", "lower"},
		{"obs.all.overhead_frac", "ratio", "lower"},
		{"obs.artifact_mb", "MB", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"runtime.heap_peak_mb", "MB", "lower"},
		{"workload.msgs_submitted", "count", "higher"},
		{"workload.bytes_submitted", "B", "higher"},
		{"workload.gen_s", "s", "lower"},
		{"check.failed_frac", "ratio", "lower"},
		{"check.late_frac", "ratio", "lower"},
		{"check.invariants_ok", "count", "higher"},
		{"trace.measured_ref_s", "s", "lower"},
		{"trace.wall_over_cpu", "ratio", "lower"},
		{"trace.host_speed", "ratio", "lower"},
	}...)
}()

// instance is a workload that has been set up: run is the measured
// region, finish checks the outputs and reads the counters.
type instance interface {
	run(e *env)
	finish(e *env, o *outcome)
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// op is the unit of ops_per_cpu_s.
	op string
	// external marks a workload whose work happens in a child process:
	// the harness's own CPU profile and allocation counters say nothing
	// about it and are left at 0.
	external bool
	// prepare, when set, runs once before the first set-up and is not
	// timed (sim_obs compiles silo-sim there).
	prepare func(e *env) error
	setup   func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{
		Name: "dc_silo", op: "packet-hop",
		Why:   "Fig. 12 datacenter under Silo: admission, paced VMs, Reno and the engine are all busy; the paper's headline run",
		setup: func(e *env) (instance, error) { return dcSetup(e, true) },
	},
	{
		Name: "dc_tcp", op: "packet-hop",
		Why:   "same topology, tenant stream and seed with locality placement and unpaced Reno: bypasses the pacer, adds drops and RTO timers",
		setup: func(e *env) (instance, error) { return dcSetup(e, false) },
	},
	{
		Name: "fabric_raw", op: "packet-hop",
		Why:   "64 generators on a bare fabric with arena packets, no transport, pacer or placement: the sequential engine alone",
		setup: fabricSetup,
	},
	{
		Name: "sim_obs", op: "simulated ms",
		Why:      "the built silo-sim with every observation plane attached through its flags: the stacked cost no microbenchmark measures",
		external: true, prepare: simObsPrepare,
		setup: simObsSetup,
	},
	{
		Name: "place100k", op: "admission request",
		Why:   "the paper's 100 K-host admission stream: placement, netcal and topology do all the work; accept, reject and remove share the code",
		setup: placeSetup,
	},
	{
		Name: "flow_fig15", op: "tenant arrival",
		Why:   "Fig. 15 flow-level run: the same placement layer on a small, 90 % full tree, reject- and remove-heavy, plus hose allocation and flowsim",
		setup: flowSetup,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
