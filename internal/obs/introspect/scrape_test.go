package introspect

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestIntrospectScrapeFamilies scrapes a live introspector through the
// Prometheus exporter and checks every family the plane registers
// appears with its expected labels. The hand-built half of this pin is
// TestPrometheusGoldenScrape in internal/obs — if a registration here
// is renamed, this test fails and the golden must follow.
func TestIntrospectScrapeFamilies(t *testing.T) {
	tree := tinyTree(t)
	nw := netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200})
	reg := obs.NewRegistry()
	in := Attach(nw, reg)
	in.TrackVM(0, 7, 1, Envelope{RateBps: 1.25e8, BurstBytes: 1000})
	in.SetPortBounds(tree.ServerUpPortID(0), PortBounds{
		Tenants: 1, QueueBoundSec: 1e-3, BacklogBytes: 10e3, BusyPeriodSec: 1e-3,
	})

	h := nw.Hosts[0]
	h.FreeOnDeliver = true
	nw.Hosts[1].FreeOnDeliver = true
	// Three back-to-back frames: 4500 B instant burst, past the 1000 B
	// admitted burst plus the 1518 B default tolerance → VIOLATED, and
	// a 4500 B high-water mark against the 10 KB bound → 5.5 KB margin.
	nw.Sim.At(0, func() {
		for i := 0; i < 3; i++ {
			p := h.Sim().AllocPacket()
			p.Src, p.SrcVM = 0, 7
			p.Dst, p.DstVM = 1, 1
			p.Size = 1500
			h.Send(p)
		}
	})
	nw.Sim.Run(1e6)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`silo_introspect_envelope_rate_bps{vm="7",tenant="1"}`,
		`silo_introspect_envelope_burst_bytes{vm="7",tenant="1"}`,
		`silo_introspect_envelope_violation{vm="7",tenant="1"} 1`,
		`silo_introspect_envelope_violations 1`,
		`silo_introspect_min_margin_bytes 5500`,
		`silo_introspect_min_margin_port `,
		`silo_introspect_port_margin_bytes{port="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}
