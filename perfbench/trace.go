package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// callStats counts one kind of seller call and the time spent in it.
type callStats struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (c *callStats) observe(t0 time.Time) {
	c.calls.Add(1)
	c.busy.Add(int64(time.Since(t0)))
}

// wireStats is what the traced run's service wrappers observed, summed
// over every node.
type wireStats struct {
	requestBids, improveBids, award, execute callStats
	errors                                   atomic.Int64
	replies, emptyReplies, offers            atomic.Int64
	rfbBytes, bidBytes, execBytes            atomic.Int64

	mu       sync.Mutex
	captured map[capturedRFB]bool // distinct (node, query SQL) pairs
}

// capturedRFB is one query an RFB asked a seller to price.
type capturedRFB struct{ node, sql string }

// maxCaptured bounds the captured RFB queries kept for replay.
const maxCaptured = 4000

// tracedService times and counts every call into one node's seller
// surface. It is registered on the network under the node's id in place of
// the node, so the program itself carries no extra instrumentation.
type tracedService struct {
	inner netsim.Service
	id    string
	ws    *wireStats
}

func (s *tracedService) fail(err error) {
	if err != nil {
		s.ws.errors.Add(1)
	}
}

// reply counts one bid reply; failed calls count only as errors.
func (s *tracedService) reply(rep trading.BidReply, err error) {
	if err != nil {
		s.ws.errors.Add(1)
		return
	}
	s.ws.replies.Add(1)
	s.ws.offers.Add(int64(len(rep.Offers)))
	if len(rep.Offers) == 0 {
		s.ws.emptyReplies.Add(1)
	}
	s.ws.bidBytes.Add(int64(rep.WireSize()))
}

func (s *tracedService) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	s.ws.mu.Lock()
	for _, q := range rfb.Queries {
		if len(s.ws.captured) < maxCaptured {
			s.ws.captured[capturedRFB{s.id, q.SQL}] = true
		}
	}
	s.ws.mu.Unlock()
	s.ws.rfbBytes.Add(int64(rfb.WireSize()))
	t0 := time.Now()
	rep, err := s.inner.RequestBids(rfb)
	s.ws.requestBids.observe(t0)
	s.reply(rep, err)
	return rep, err
}

func (s *tracedService) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	s.ws.rfbBytes.Add(int64(req.WireSize()))
	t0 := time.Now()
	rep, err := s.inner.ImproveBids(req)
	s.ws.improveBids.observe(t0)
	s.reply(rep, err)
	return rep, err
}

func (s *tracedService) Award(aw trading.Award) error {
	t0 := time.Now()
	err := s.inner.Award(aw)
	s.ws.award.observe(t0)
	s.fail(err)
	return err
}

func (s *tracedService) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	t0 := time.Now()
	resp, err := s.inner.Execute(req)
	s.ws.execute.observe(t0)
	s.fail(err)
	s.ws.execBytes.Add(int64(req.WireSize() + resp.WireSize()))
	return resp, err
}

// tracing is the traced run's attachment to a federation.
type tracing struct {
	ws      *wireStats
	metrics *obs.Metrics
}

// attach wraps every node's service and attaches a metrics registry to
// every node's seller path.
func attach(rn *runner) *tracing {
	tr := &tracing{ws: &wireStats{captured: map[capturedRFB]bool{}}, metrics: obs.NewMetrics()}
	fed := rn.in.fed
	for id, n := range fed.Nodes {
		fed.Net.Register(id, &tracedService{inner: n, id: id, ws: tr.ws})
	}
	fed.SetObs(nil, tr.metrics)
	return tr
}

// detach restores the plain nodes.
func (tr *tracing) detach(rn *runner) {
	fed := rn.in.fed
	for id, n := range fed.Nodes {
		fed.Net.Register(id, n)
	}
	fed.SetObs(nil, nil)
}

// nodeCounter sums a node metric ("pricecache_hits", ...) over nodes.
func (tr *tracing) nodeCounter(nodes map[string]*node.Node, name string) int64 {
	var s int64
	for id := range nodes {
		s += tr.metrics.Counter("node." + id + "." + name).Value()
	}
	return s
}

// capturedList returns the captured RFB queries in a deterministic order.
func (tr *tracing) capturedList() []capturedRFB {
	tr.ws.mu.Lock()
	defer tr.ws.mu.Unlock()
	out := make([]capturedRFB, 0, len(tr.ws.captured))
	for c := range tr.ws.captured {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].sql < out[j].sql
	})
	return out
}
