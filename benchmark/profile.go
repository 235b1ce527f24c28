package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile brackets the measured region with the Go CPU profiler.
// The profile is read back from outside the program, through
// `go tool pprof -traces`, so nothing under internal/ needs labels.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stopAndAttribute ends the profile and returns CPU seconds per layer.
func (p *cpuProfile) stopAndAttribute() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", p.path, err)
	}
	return attributeTraces(bytes.NewReader(out))
}

// attributeTraces parses `pprof -traces` text: stacks separated by
// dashed rules, each starting with "<value><unit>  <leaf frame>" and
// continuing with one caller per line, inlined frames included as
// lines of their own. Each stack's value goes to one layer.
func attributeTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			out[layerOfStack(frames)] += value
		}
		value, frames = 0, frames[:0]
	}
	inStacks := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks || strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Fields(line)
		if len(frames) == 0 {
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: stack starts with %q", line)
			}
			v, err := parseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %w", err)
			}
			value = v
			f = f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	return out, sc.Err()
}

// parseDuration reads pprof's sample values ("10ms", "1.52s", "200us").
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("sample value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("sample value %q has no time unit", s)
}

// layerOfStack charges a stack, leaf first, to the innermost frame that
// belongs to this repository: repro/internal/<layer> for a layer of
// cpuLayers, "workload" for the benchmark's own frames and the
// internal packages that are not layers, and "runtime" when the stack
// has no repository frame at all (background GC, the scheduler). A
// layer's share therefore includes the allocation and map work it
// causes.
func layerOfStack(frames []string) string {
	for _, fr := range frames {
		if strings.HasPrefix(fr, "main.") || strings.HasPrefix(fr, "repro.") {
			return "workload"
		}
		rest, ok := strings.CutPrefix(fr, "repro/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg && l != "runtime" {
				return l
			}
		}
		return "workload"
	}
	return "runtime"
}
