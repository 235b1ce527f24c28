package faults

import (
	"strings"
	"testing"
)

func TestParseScheduleGrammar(t *testing.T) {
	sched, err := ParseSchedule("t=2s link 14 down, t=4s up")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 2 {
		t.Fatalf("want 2 entries, got %d", len(sched))
	}
	if sched[0].AtNs != 2e9 || sched[0].Op != OpDown || sched[0].Target.Port != 14 {
		t.Fatalf("entry 0 = %+v", sched[0])
	}
	// The second entry inherits "link 14".
	if sched[1].AtNs != 4e9 || sched[1].Op != OpUp || sched[1].Target != sched[0].Target {
		t.Fatalf("entry 1 = %+v", sched[1])
	}

	sched, err = ParseSchedule("t=1ms switch tor0 down; t=500us host 3 down, t=2ms link 7 flap 3x100us/200us, t=8ms gray 1ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 {
		t.Fatalf("want 4 entries, got %d", len(sched))
	}
	if sched[0].Target.Kind != TargetSwitch || sched[0].Target.Switch != "tor0" {
		t.Fatalf("entry 0 = %+v", sched[0])
	}
	if sched[1].Target.Kind != TargetHost || sched[1].Target.Host != 3 {
		t.Fatalf("entry 1 = %+v", sched[1])
	}
	f := sched[2]
	if f.Op != OpFlap || f.Cycles != 3 || f.DownNs != 100_000 || f.UpNs != 200_000 {
		t.Fatalf("flap entry = %+v", f)
	}
	g := sched[3]
	if g.Op != OpGray || g.DurNs != 1_000_000 || g.Target.Port != 7 {
		t.Fatalf("gray entry = %+v", g)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"", "empty schedule"},
		{"link 14 down", `must start with "t=`},
		{"t=abc link 14 down", "bad time"},
		{"t=-2s link 14 down", "negative"},
		{"t=1s down", "no target"},
		{"t=1s link x down", "bad port id"},
		{"t=1s host x down", "bad host id"},
		{"t=1s link 14", "missing action"},
		{"t=1s link 14 explode", "unknown action"},
		{"t=1s link 14 gray", "needs a duration"},
		{"t=1s link 14 gray -5ms", "bad gray duration"},
		{"t=1s link 14 flap", "needs parameters"},
		{"t=1s link 14 flap 3", "bad flap spec"},
		{"t=1s link 14 flap x100us/200us", "bad flap cycle count"},
		{"t=1s link 14 flap 3x100us", "bad flap spec"},
		{"t=1s link 14 flap 3xbad/200us", "bad flap down duration"},
		{"t=1s link 14 flap 3x100us/bad", "bad flap up duration"},
		{"t=1s link 14 down extra junk", "trailing tokens"},
	}
	for _, c := range cases {
		_, err := ParseSchedule(c.in)
		if err == nil {
			t.Fatalf("ParseSchedule(%q) accepted malformed input", c.in)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("ParseSchedule(%q) error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
}

// FuzzParseSchedule asserts the -fault grammar never panics and that
// every accepted schedule re-renders round-trip-stable targets.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{
		"t=2s link 14 down,t=4s up",
		"t=1ms switch tor0 down",
		"t=1ms host 3 down; t=2ms up",
		"t=500us link 7 flap 3x100us/200us",
		"t=8ms link 7 gray 1ms",
		"t=0s link 0 down",
		"t=1h switch core down",
		",,,",
		"t=1s link 9223372036854775807 down",
		"t=9999999h link 1 down",
		"t=1s\tlink\t1\tdown",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := ParseSchedule(s)
		if err != nil {
			if sched != nil {
				t.Fatal("non-nil schedule returned with error")
			}
			return
		}
		for _, a := range sched {
			if a.AtNs < 0 {
				t.Fatalf("accepted negative time: %+v", a)
			}
			if a.Op == OpFlap && (a.Cycles <= 0 || a.DownNs <= 0 || a.UpNs <= 0) {
				t.Fatalf("accepted degenerate flap: %+v", a)
			}
			if a.Op == OpGray && a.DurNs <= 0 {
				t.Fatalf("accepted degenerate gray: %+v", a)
			}
		}
	})
}
