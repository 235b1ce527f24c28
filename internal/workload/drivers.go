package workload

import (
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Tally is what a driver reports about the messages it sent; the zero
// value is ready to use.
type Tally struct {
	// LatencyUs samples completed messages (ETC: request to response).
	LatencyUs stats.Sample
	// Messages sent and, of the completed ones, those that suffered at
	// least one retransmission timeout.
	Messages, MessagesRTO int
}

// Record notes a completed message.
func (t *Tally) Record(m *transport.Message) {
	t.LatencyUs.Add(float64(m.Latency()) / 1e3)
	if m.RTOs > 0 {
		t.MessagesRTO++
	}
}

// OLDI drives the class-A partition/aggregate pattern until horizonNs:
// every sender simultaneously sends msgBytes to dstVM, in rounds at
// exponential gaps drawn from rng. The aggregator's receive hose
// bandwidthBps bounds the sustainable load — each round moves
// len(senders)·msgBytes into it — and the mean period offers a quarter
// of that rate: bursty but sparse, as OLDI queries are (the burst
// allowance is what makes them fast).
func (t *Tally) OLDI(sim *netsim.Sim, rng *stats.Rand, senders []*transport.Endpoint, dstVM, msgBytes int, bandwidthBps float64, horizonNs int64) {
	meanPeriod := 4 * float64(len(senders)) * float64(msgBytes) / bandwidthBps * 1e9
	next := int64(rng.Exp(meanPeriod))
	var round func()
	round = func() {
		for _, ep := range senders {
			t.Messages++
			ep.SendMessage(dstVM, msgBytes, t.Record)
		}
		next += int64(rng.Exp(meanPeriod))
		if next < horizonNs {
			sim.At(next, round)
		}
	}
	sim.At(next, round)
}

// Shuffle drives the class-B all-to-all pattern: every endpoint keeps
// one msgBytes message in flight to each peer on another server until
// horizonNs (same-server pairs never cross the network). vmIDs and
// servers are the endpoints' VM ids and hosts, index for index.
func (t *Tally) Shuffle(sim *netsim.Sim, eps []*transport.Endpoint, vmIDs, servers []int, msgBytes int, horizonNs int64) {
	for i, ep := range eps {
		for j, dst := range vmIDs {
			if i == j || servers[i] == servers[j] {
				continue
			}
			var pump func(*transport.Message)
			pump = func(prev *transport.Message) {
				if prev != nil {
					t.Record(prev)
				}
				if sim.Now() < horizonNs {
					t.Messages++
					ep.SendMessage(dst, msgBytes, pump)
				}
			}
			pump(nil)
		}
	}
}

// Burst fires every sender's msgBytes message at dstVM at the same
// instant — the synchronized worst case admission control budgets for —
// at startNs and, when periodNs > 0, every period after it until
// horizonNs. A round that finds live false ends the driver (its
// deployment was superseded); done sees every completed message.
func (t *Tally) Burst(sim *netsim.Sim, senders []*transport.Endpoint, dstVM, msgBytes int, startNs, periodNs, horizonNs int64, live func() bool, done func(*transport.Message)) {
	next := startNs
	var round func()
	round = func() {
		if !live() {
			return
		}
		for _, ep := range senders {
			t.Messages++
			ep.SendMessage(dstVM, msgBytes, done)
		}
		next += periodNs
		if periodNs > 0 && next < horizonNs {
			sim.At(next, round)
		}
	}
	sim.At(next, round)
}

// etcConcurrency bounds a memcached client's outstanding requests, like
// memcached's synchronous transactions (§6.1): a request past the
// limit waits for an outstanding response.
const etcConcurrency = 4

// etcClient is one memcached client's closed-loop state.
type etcClient struct {
	ep          *transport.Endpoint
	outstanding int
	dueValues   []int // response sizes of due-but-unissued requests
}

// ETC drives the memcached workload of Figures 1 and 11 until
// horizonNs: server answers, every client is closed-loop and draws
// Facebook-ETC requests from its own generator split off rng. The
// aggregate load targetBps is split over the clients; each request
// moves ≈(100+mean value) bytes. Latency is request to response.
func (t *Tally) ETC(sim *netsim.Sim, rng *stats.Rand, server *transport.Endpoint, clients []*transport.Endpoint, targetBps float64, horizonNs int64) {
	type reqInfo struct {
		client    *etcClient
		respBytes int
		issued    int64
	}
	reqByID := map[uint64]*reqInfo{}
	respByID := map[uint64]*reqInfo{}
	server.OnMessage = func(srcVM int, msgID uint64, size int) {
		ri, ok := reqByID[msgID]
		if !ok {
			return
		}
		delete(reqByID, msgID)
		m := server.SendMessage(ri.client.ep.VMID, ri.respBytes, nil)
		respByID[m.ID] = ri
	}

	meanVal := ETCMeanValueBytes(stats.NewRand(99), 50000)
	reqRate := targetBps / float64(len(clients)) / (ETCRequestBytes + meanVal) // requests/sec per client
	// A variable, so 1 − shape is float64 arithmetic, not an exact
	// constant expression.
	shape := float64(ETCGapShape)
	gapScale := 1 / reqRate * (1 - shape)
	issue := func(c *etcClient, valueBytes int) {
		t.Messages++
		c.outstanding++
		m := c.ep.SendMessage(server.VMID, ETCRequestBytes, nil)
		reqByID[m.ID] = &reqInfo{client: c, respBytes: valueBytes, issued: sim.Now()}
	}
	for _, ep := range clients {
		c := &etcClient{ep: ep}
		gen := NewETCGenerator(gapScale, rng.Split(), 0)
		var schedule func()
		schedule = func() {
			req := gen.Next()
			if req.At >= horizonNs {
				return
			}
			sim.At(req.At, func() {
				if c.outstanding < etcConcurrency {
					issue(c, req.ValueBytes)
				} else {
					c.dueValues = append(c.dueValues, req.ValueBytes)
				}
				schedule()
			})
		}
		schedule()
		// Response completion: record latency and release the closed
		// loop.
		ep.OnMessage = func(srcVM int, msgID uint64, size int) {
			ri, ok := respByID[msgID]
			if !ok {
				return
			}
			delete(respByID, msgID)
			t.LatencyUs.Add(float64(sim.Now()-ri.issued) / 1e3)
			c.outstanding--
			if len(c.dueValues) > 0 && c.outstanding < etcConcurrency {
				v := c.dueValues[0]
				c.dueValues = c.dueValues[1:]
				issue(c, v)
			}
		}
	}
}
