package main

import (
	"math"
	"os"
	"testing"
)

func TestAttributeTraces(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attributeTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"netsim":    0.010,  // leaf in netsim
		"pacer":     0.030,  // malloc under pacer.Enqueue (20ms) + an inlined pacer leaf (10ms)
		"runtime":   0.030,  // background sweep: no repository frame at all
		"workload":  0.0415, // the benchmark's generator (40ms) + internal/tenant, not a layer (1.5ms)
		"stats":     0.0005, // innermost repository frame wins over flowsim above it
		"transport": 0,
		"placement": 0,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s = %gs, want %gs", layer, got[layer], w)
		}
	}
	total := 0.0
	for _, s := range got {
		total += s
	}
	if math.Abs(total-0.112) > 1e-9 {
		t.Errorf("total = %gs, want every sample charged exactly once (0.112s)", total)
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		want   string
		frames []string
	}{
		{"runtime", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{"netcal", []string{"math.Log", "repro/internal/netcal.QueueBoundTB", "repro/internal/placement.(*Manager).portOK"}},
		{"placement", []string{"runtime.mapaccess1", "repro/internal/placement.(*Manager).contributions", "repro/internal/core.(*Controller).Admit"}},
		{"workload", []string{"repro/internal/core.(*Controller).Admit", "main.(*placeInst).run"}},
		{"workload", []string{"repro/internal/obs/slo.(*Engine).Flush"}},
		{"workload", []string{"repro.NewNetwork", "main.dcSetup"}},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 0.01, "1.52s": 1.52, "200us": 2e-4, "30ns": 3e-8} {
		if got, err := parseDuration(s); err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseDuration(%q) = %g, %v", s, got, err)
		}
	}
	if _, err := parseDuration("12"); err == nil {
		t.Error("a bare number passed as a duration")
	}
}
