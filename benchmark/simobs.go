package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// sim_obs runs the built silo-sim command with every observation plane
// attached through its flags, the one interface to the planes that a
// rewrite of their internals keeps.
const (
	// simObsSimSecPerSec sizes the run: simulated seconds of load per
	// host second asked for, with all planes on, measured on the 2-core
	// reference container.
	simObsSimSecPerSec = 0.115
)

// obsPlanes are the flags that attach each plane; %s is the artifact
// directory.
type obsPlane struct {
	name  string
	flags []string
	file  string // the JSON artifact the plane writes, if any
}

var obsPlanes = []obsPlane{
	{"trace", []string{"-trace", "%s/trace.json", "-trace-sample", "1"}, "trace.json"},
	{"slo", []string{"-slo-report"}, ""},
	{"series", []string{"-series", "%s/series.json"}, "series.json"},
	{"incidents", []string{"-incidents", "%s/incidents.json"}, "incidents.json"},
	{"introspect", []string{"-introspect", "%s/introspect.json"}, "introspect.json"},
}

// simObsPrepare compiles cmd/silo-sim into the output directory.
func simObsPrepare(e *env) error {
	out, err := exec.Command("go", "build", "-o", siloSimPath(e), "repro/cmd/silo-sim").CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build repro/cmd/silo-sim: %v\n%s", err, out)
	}
	return nil
}

func siloSimPath(e *env) string { return filepath.Join(e.outDir, "bin", "silo-sim") }

type simObsInst struct {
	bin, dir string
	seed     uint64
	duration float64

	// stdout and rssMB come from the measured run.
	stdout []byte
	rssMB  float64
	runErr error
}

// args is the command line for the given planes (nil = bare).
func (in *simObsInst) args(duration float64, planes []obsPlane) []string {
	a := []string{"-scheme", "silo", "-racks", "4", "-servers", "10",
		"-seed", strconv.FormatUint(in.seed, 10),
		"-duration", strconv.FormatFloat(duration, 'g', -1, 64)}
	for _, p := range planes {
		for _, f := range p.flags {
			if f[0] == '%' {
				f = fmt.Sprintf(f, in.dir)
			}
			a = append(a, f)
		}
	}
	return a
}

// cliRun is one finished silo-sim process.
type cliRun struct {
	stdout []byte
	wallS  float64
	cpuS   float64 // user + system time of the child
	rssMB  float64
}

// exec runs silo-sim to completion; a non-zero exit is an error.
func (in *simObsInst) exec(e *env, span string, duration float64, planes []obsPlane) (cliRun, error) {
	cmd := exec.Command(in.bin, in.args(duration, planes)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sp := e.tr.begin(span)
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wallS: time.Since(t0).Seconds()}
	e.tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("silo-sim: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	r.stdout = stdout.Bytes()
	r.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return r, nil
}

// simObsSetup runs the command at -duration 0: process start, topology,
// admission, deployment and plane attachment, with nothing simulated.
func simObsSetup(e *env) (instance, error) {
	in := &simObsInst{bin: siloSimPath(e), dir: filepath.Join(e.outDir, "sim_obs"), seed: e.seed, duration: e.seconds * simObsSimSecPerSec}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := in.exec(e, "cli.setup", 0, obsPlanes); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *simObsInst) run(e *env) {
	r, err := in.exec(e, "cli.all", in.duration, obsPlanes)
	in.stdout, in.rssMB, in.runErr = r.stdout, r.rssMB, err
}

// simSummary is what silo-sim's stdout says about the run.
type simSummary struct {
	messages, completed, withRTO, drops, faultDrops, voids int64
}

var simSummaryRE = regexp.MustCompile(`(?m)^messages=(\d+) completed=(\d+) withRTO=(\d+) drops=(\d+) faultDrops=(\d+) voids=(\d+)$`)

func parseSimSummary(stdout []byte) (simSummary, error) {
	m := simSummaryRE.FindSubmatch(stdout)
	if m == nil {
		return simSummary{}, fmt.Errorf("no \"messages=… completed=…\" line in silo-sim output")
	}
	var v [6]int64
	for i := range v {
		n, err := strconv.ParseInt(string(m[i+1]), 10, 64)
		if err != nil {
			return simSummary{}, err
		}
		v[i] = n
	}
	return simSummary{v[0], v[1], v[2], v[3], v[4], v[5]}, nil
}

func (in *simObsInst) finish(e *env, o *outcome) {
	o.ops = int64(in.duration * 1000)
	o.attempted = 1
	if in.runErr != nil {
		o.fail(1, "%v", in.runErr)
		return
	}
	sum, err := parseSimSummary(in.stdout)
	if err != nil {
		o.fail(1, "%v", err)
		return
	}
	o.attempted = max(sum.messages, 1)
	o.childRSSMB = in.rssMB
	if sum.completed != sum.messages {
		o.fail(sum.messages-sum.completed, "completed %d of %d messages", sum.completed, sum.messages)
	}
	if sum.drops != 0 || sum.faultDrops != 0 {
		o.fail(sum.drops+sum.faultDrops, "%d drops, %d fault drops under Silo", sum.drops, sum.faultDrops)
	}
	bytesTotal := int64(0)
	for _, p := range obsPlanes {
		if p.file == "" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(in.dir, p.file))
		if err != nil {
			o.fail(o.attempted, "artifact %s: %v", p.file, err)
			continue
		}
		if !json.Valid(b) {
			o.fail(o.attempted, "artifact %s is not valid JSON", p.file)
		}
		bytesTotal += int64(len(b))
	}
	l := o.layer
	l["obs.artifact_mb"] = float64(bytesTotal) / (1 << 20)
	l["transport.msgs"] = float64(sum.completed)
	l["transport.rto_msg_frac"] = ratio(float64(sum.withRTO), float64(sum.completed))
	l["netsim.drops"] = float64(sum.drops)
	l["pacer.void_frames"] = float64(sum.voids)
	l["workload.msgs_submitted"] = float64(sum.messages)
	if e.traced() {
		in.ladder(e, o)
	}
}

// ladder is the plane ladder: the same command bare, with each plane
// alone, then with all of them; a plane's overhead is the share of the
// bare run's CPU time it adds.
func (in *simObsInst) ladder(e *env, o *outcome) {
	r, err := in.exec(e, "cli.bare", in.duration, nil)
	if err != nil {
		o.fail(o.attempted, "bare run: %v", err)
		return
	}
	bare := r.cpuS
	o.layer["obs.bare_cpu_s"] = bare
	rungs := [][]obsPlane{obsPlanes}
	for i := range obsPlanes {
		rungs = append(rungs, obsPlanes[i:i+1])
	}
	for _, planes := range rungs {
		name := "all"
		if len(planes) == 1 {
			name = planes[0].name
		}
		r, err := in.exec(e, "cli."+name, in.duration, planes)
		if err != nil {
			o.fail(o.attempted, "%s run: %v", name, err)
			continue
		}
		o.layer["obs."+name+".overhead_frac"] = (r.cpuS - bare) / bare
	}
}
