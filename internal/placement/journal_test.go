package placement

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// An accepted tenant's journal entry must list every crossed port with
// positive post-admission margin, and the limiting port must be the
// one with the least margin.
func TestJournalAcceptRecordsCuts(t *testing.T) {
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	m.EnableJournal(0)
	if _, err := m.Place(fig5Spec(1)); err != nil {
		t.Fatalf("place: %v", err)
	}
	d, ok := m.Decision(1)
	if !ok || !d.Accepted {
		t.Fatalf("no accepted decision journaled: %+v ok=%v", d, ok)
	}
	if len(d.Cuts) == 0 {
		t.Fatal("accepted multi-server tenant must cross ports")
	}
	minMargin, minPort := math.Inf(1), -1
	for _, pc := range d.Cuts {
		if pc.MarginSec() <= 0 {
			t.Errorf("port %d (%s): admitted with non-positive margin %.3gs", pc.Port, pc.Kind, pc.MarginSec())
		}
		if pc.BoundAfterSec < pc.BoundBeforeSec {
			t.Errorf("port %d: bound shrank on admission (%v -> %v)", pc.Port, pc.BoundBeforeSec, pc.BoundAfterSec)
		}
		if pc.CutVMs <= 0 || pc.CutVMs >= d.VMs {
			t.Errorf("port %d: cut %d outside (0, %d)", pc.Port, pc.CutVMs, d.VMs)
		}
		if pc.MarginSec() < minMargin {
			minMargin, minPort = pc.MarginSec(), pc.Port
		}
	}
	if d.LimitingPort != minPort {
		t.Fatalf("limiting port %d, want min-margin port %d", d.LimitingPort, minPort)
	}
	out := m.Explain(1)
	if !strings.Contains(out, "ACCEPTED") || !strings.Contains(out, "<- limiting") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

// Fill the Figure-5 rack until a tenant is rejected: the journal must
// blame constraint 1 and name a concrete port, and the explainer must
// agree between the Manager and the reference oracle — the acceptance
// criterion for admission explainability.
func TestJournalRejectNamesSamePortAsReference(t *testing.T) {
	treeFast, treeRef := fig5Tree(t), fig5Tree(t)
	fast := NewManager(treeFast, Options{})
	ref := newRefManager(treeRef, Options{})
	fast.EnableJournal(0)
	ref.EnableJournal(0)

	rejected := -1
	for id := 1; id <= 8; id++ {
		spec := fig5Spec(id)
		spec.VMs = 3
		spec.FaultDomains = 2
		_, errF := fast.Place(spec)
		_, errR := ref.Place(spec)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("id %d: fast err %v, ref err %v", id, errF, errR)
		}
		if errF != nil {
			rejected = id
			break
		}
	}
	if rejected < 0 {
		t.Fatal("no rejection occurred; widen the fill loop")
	}
	df, okF := fast.Decision(rejected)
	dr, okR := ref.Decision(rejected)
	if !okF || !okR {
		t.Fatalf("missing journal entries: fast=%v ref=%v", okF, okR)
	}
	if df.Accepted || dr.Accepted {
		t.Fatal("rejected tenant journaled as accepted")
	}
	if df.LimitingPort < 0 {
		t.Fatalf("network rejection must name a limiting port; reason: %s", df.Reason)
	}
	if df.LimitingPort != dr.LimitingPort {
		t.Fatalf("fast names port %d, reference names port %d\nfast: %s\nref: %s",
			df.LimitingPort, dr.LimitingPort, df.Reason, dr.Reason)
	}
	if math.Abs(df.LimitingBoundSec-dr.LimitingBoundSec) > 1e-9 {
		t.Fatalf("limiting bounds drift: fast %v ref %v", df.LimitingBoundSec, dr.LimitingBoundSec)
	}
	out := fast.Explain(rejected)
	if !strings.Contains(out, "REJECTED") || !strings.Contains(out, "limiting port") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

// A delay bound below even the rack-scope path capacity must be blamed
// on constraint 2, with no port named.
func TestJournalRejectDelayBudget(t *testing.T) {
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	m.EnableJournal(0)
	spec := fig5Spec(1)
	spec.FaultDomains = 2 // forbid the single-server escape hatch
	spec.VMs = 4
	spec.Guarantee.DelayBound = 1e-9
	if _, err := m.Place(spec); err == nil {
		t.Fatal("expected rejection")
	}
	d, ok := m.Decision(1)
	if !ok || d.Accepted {
		t.Fatalf("missing reject decision: %+v", d)
	}
	if !strings.Contains(d.Reason, "constraint 2") {
		t.Fatalf("want constraint-2 reason, got: %s", d.Reason)
	}
	if d.LimitingPort != -1 {
		t.Fatalf("delay-budget rejection should not name a port, got %d", d.LimitingPort)
	}
}

// The journal must replay arbitrary random sequences with fast/ref
// agreement on every rejection's limiting port, bound and wording (the
// property-test form of the acceptance criterion). The oracle explains
// by replaying the pack server by server over materialized curves; the
// Manager reads its search's own functions and memo. Odd seeds draw
// randomSpec, which mustSmallTree turns away only for slots; even seeds
// draw goldenSpec, whose rejections name ports.
func TestJournalEquivalenceProperty(t *testing.T) {
	portBound := 0
	for seed := uint64(1); seed <= 16; seed++ {
		tree := mustSmallTree()
		treeR := mustSmallTree()
		fast := NewManager(tree, Options{})
		ref := newRefManager(treeR, Options{})
		fast.EnableJournal(0)
		ref.EnableJournal(0)
		rng := stats.NewRand(seed)
		for id := 1; id <= 60; id++ {
			spec := randomSpec(rng, id)
			if seed%2 == 0 {
				spec = goldenSpec(rng, id)
			}
			_, errF := fast.Place(spec)
			_, errR := ref.Place(spec)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("seed %d id %d: decisions differ", seed, id)
			}
			if errF == nil || !errors.Is(errF, ErrRejected) {
				continue // accepted, or rejected before admission (validation)
			}
			df, _ := fast.Decision(id)
			dr, _ := ref.Decision(id)
			if df == nil || dr == nil {
				t.Fatalf("seed %d id %d: missing journal entry", seed, id)
			}
			if df.LimitingPort != dr.LimitingPort {
				t.Fatalf("seed %d id %d: fast port %d vs ref port %d\nfast: %s\nref: %s",
					seed, id, df.LimitingPort, dr.LimitingPort, df.Reason, dr.Reason)
			}
			if df.Reason != dr.Reason || !(math.Abs(df.LimitingBoundSec-dr.LimitingBoundSec) <= 1e-9 || df.LimitingBoundSec == dr.LimitingBoundSec) {
				t.Fatalf("seed %d id %d: explanations differ\nfast: %s (%v)\nref: %s (%v)",
					seed, id, df.Reason, df.LimitingBoundSec, dr.Reason, dr.LimitingBoundSec)
			}
			if df.LimitingPort >= 0 {
				portBound++
			}
		}
	}
	if portBound < 20 {
		t.Fatalf("only %d rejections named a port; the streams no longer exercise the explanation", portBound)
	}
}

// The journal retention cap evicts oldest decisions first.
func TestJournalRetention(t *testing.T) {
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	m.EnableJournal(2)
	for id := 1; id <= 3; id++ {
		spec := fig5Spec(id)
		spec.VMs = 2
		m.Place(spec)
	}
	if _, ok := m.Decision(1); ok {
		t.Fatal("oldest decision should have been evicted")
	}
	if _, ok := m.Decision(3); !ok {
		t.Fatal("newest decision missing")
	}
}

// An untouched journal adds nothing to the admission hot path: placing
// with the journal disabled must leave Decision empty.
func TestJournalDisabledByDefault(t *testing.T) {
	tree := fig5Tree(t)
	m := NewManager(tree, Options{})
	if _, err := m.Place(fig5Spec(1)); err != nil {
		t.Fatalf("place: %v", err)
	}
	if _, ok := m.Decision(1); ok {
		t.Fatal("journal should be nil unless enabled")
	}
}
