package transport

import (
	"fmt"
	"reflect"
	"testing"
)

// TestReRegisterWhileInFlight re-registers VMs with AddEndpoint while
// their traffic is in flight, and pins what every endpoint then
// receives, acknowledges and completes, with each connection's RTT
// estimate (which moves with the path every ack takes):
//
//   - y→800: the receiver moves to another rack before the first window
//     lands, so that window and the rest of the stream reach the new
//     endpoint and the transfer completes there;
//   - a→200: the receiver moves mid-transfer; the old stream stalls
//     against the new endpoint's empty receive state;
//   - x→600: the sender is replaced mid-transfer on another rack; acks in
//     flight to it reach the new endpoint, which has no such connection,
//     and the new endpoint's own stream starts inside the old one's;
//   - a2→200, c→200: new streams into a replaced receiver, one of them
//     reusing the old stream's message ID.
//
// Endpoints are resolved as the transport always has: by the VM's
// endpoint current when a packet is emitted and when it is delivered.
func TestReRegisterWhileInFlight(t *testing.T) {
	nw := testNet(t, 312e3)
	f := NewFabric(nw)
	opt := Options{MinRTONs: 1_000_000}
	var log []string
	named := func(name string, e *Endpoint) *Endpoint {
		e.OnMessage = func(src int, id uint64, size int) {
			log = append(log, fmt.Sprintf("%s got %d bytes from %d (msg %x) at %d", name, size, src, id, nw.Sim.Now()))
		}
		return e
	}
	done := func(name string) func(*Message) {
		return func(m *Message) {
			log = append(log, fmt.Sprintf("%s done at %d after %d RTOs", name, m.Completed, m.RTOs))
		}
	}
	a := named("a", f.AddEndpoint(100, 0, opt))
	named("b", f.AddEndpoint(200, 1, opt))
	c := named("c", f.AddEndpoint(300, 3, opt))
	x := named("x", f.AddEndpoint(500, 2, opt))
	z := named("z", f.AddEndpoint(600, 5, opt))
	y := named("y", f.AddEndpoint(700, 0, opt))
	named("w", f.AddEndpoint(800, 1, opt))
	a.SendMessage(200, 300_000, done("a→200"))
	c.SendMessage(100, 200_000, done("c→100"))
	x.SendMessage(600, 300_000, done("x→600"))
	y.SendMessage(800, 100_000, done("y→800"))

	var a2, b2, x2, w2 *Endpoint
	nw.Sim.At(500, func() { w2 = named("w2", f.AddEndpoint(800, 5, opt)) })
	nw.Sim.At(20_000, func() { b2 = named("b2", f.AddEndpoint(200, 4, opt)) })
	nw.Sim.At(30_000, func() { x2 = named("x2", f.AddEndpoint(500, 4, opt)) })
	nw.Sim.At(40_000, func() { a2 = named("a2", f.AddEndpoint(100, 0, opt)) })
	nw.Sim.At(60_000, func() {
		a2.SendMessage(200, 100_000, done("a2→200"))
		x2.SendMessage(600, 50_000, done("x2→600"))
	})
	nw.Sim.At(100_000, func() { c.SendMessage(200, 10_000, done("c→200")) })
	nw.Sim.Run(2e9)

	for _, r := range []struct {
		name string
		e    *Endpoint
		peer int
	}{{"a", a, 300}, {"a2", a2, 300}, {"b2", b2, 100}, {"b2", b2, 300}, {"c", c, 100}, {"z", z, 500}, {"w2", w2, 700}} {
		log = append(log, fmt.Sprintf("%s received %d from %d", r.name, r.e.BytesReceived(r.peer), r.peer))
	}
	for _, r := range []struct {
		name string
		c    *Conn
	}{
		{"a→200", a.Conn(200)}, {"a2→200", a2.Conn(200)}, {"c→100", c.Conn(100)}, {"c→200", c.Conn(200)},
		{"x→600", x.Conn(600)}, {"x2→600", x2.Conn(600)}, {"y→800", y.Conn(800)},
	} {
		log = append(log, fmt.Sprintf("%s: una %d nxt %d segs %d rto %d fr %d srtt %.0f", r.name, r.c.sndUna, r.c.sndNxt, r.c.SegmentsOut, r.c.RTOCount, r.c.FastRetx, r.c.srtt))
	}
	want := []string{
		"x2→600 done at 60384 after 0 RTOs", // acked at once: the old stream was further on
		"b2 got 10000 bytes from 300 (msg 12d00000002) at 110089",
		"c→200 done at 110591 after 0 RTOs",
		"w2 got 100000 bytes from 700 (msg 2bd00000001) at 206950",
		"y→800 done at 207936 after 0 RTOs",
		"a2→200 done at 208507 after 0 RTOs", // its message ID is the old stream's: never delivered
		"a received 26280 from 300",
		"a2 received 0 from 300",
		"b2 received 100000 from 100",
		"b2 received 10000 from 300",
		"c received 0 from 100",
		"z received 75920 from 500",
		"w2 received 100000 from 700",
		"a→200: una 14600 nxt 16060 segs 66 rto 36 fr 0 srtt 27918",
		"a2→200: una 100000 nxt 100000 segs 108 rto 0 fr 1 srtt 5330",
		"c→100: una 26280 nxt 27740 segs 82 rto 36 fr 0 srtt 5299",
		"c→200: una 10000 nxt 10000 segs 7 rto 0 fr 0 srtt 5974",
		"x→600: una 30660 nxt 32120 segs 88 rto 36 fr 0 srtt 14942",
		"x2→600: una 75920 nxt 50000 segs 35 rto 0 fr 0 srtt 5106",
		"y→800: una 100000 nxt 100000 segs 69 rto 0 fr 0 srtt 79113",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("got:\n%q\nwant:\n%q", log, want)
	}
}
