package node

import (
	"time"

	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// nodeObs bundles a node's tracer with its pre-resolved instruments so the
// seller hot path (RequestBids → rewrite → DP pricing) never touches the
// metric registry. It is swapped atomically as a unit: nil means
// observability is off and every call site reduces to one pointer load.
type nodeObs struct {
	tracer *obs.Tracer

	rfbs              *obs.Counter // RFBs received
	offersPriced      *obs.Counter // DP-priced partial-result offers
	offersView        *obs.Counter // offers derived from materialized views
	offersPartialAgg  *obs.Counter // partial-aggregate (pushdown) offers
	offersSubcontract *obs.Counter // §3.5 composite offers
	offersWon         *obs.Counter // awards received
	rewritesEmpty     *obs.Counter // queries the node could not bid on
	execs             *obs.Counter // purchased answers executed

	cacheHits         *obs.Counter // price-cache hits (cached valuation reused, negative ones included)
	cacheMisses       *obs.Counter // price-cache misses (full valuation ran)
	cacheEvictions    *obs.Counter // price-cache LRU evictions
	pricingsCoalesced *obs.Counter // duplicate (RFB, query) pricings single-flighted

	rfbsQueued    *obs.Counter // Depth-0 RFBs that had to wait for admission
	rfbQueueDepth *obs.Gauge   // Depth-0 RFBs currently waiting for admission
	rfbsInflight  *obs.Gauge   // Depth-0 RFBs currently holding an admission slot

	rewriteMS *obs.Histogram
	dpMS      *obs.Histogram
	execMS    *obs.Histogram
}

// SetObs attaches a tracer and metrics registry to the node (both may be
// nil). Safe to call concurrently with negotiations: in-flight calls keep
// the observer they loaded. Metric names are prefixed "node.<id>.".
func (n *Node) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	if tr == nil && m == nil {
		n.obsv.Store(nil)
		return
	}
	p := "node." + n.cfg.ID + "."
	n.obsv.Store(&nodeObs{
		tracer:            tr,
		rfbs:              m.Counter(p + "rfbs"),
		offersPriced:      m.Counter(p + "offers_priced"),
		offersView:        m.Counter(p + "offers_view"),
		offersPartialAgg:  m.Counter(p + "offers_partialagg"),
		offersSubcontract: m.Counter(p + "offers_subcontract"),
		offersWon:         m.Counter(p + "offers_won"),
		rewritesEmpty:     m.Counter(p + "rewrites_empty"),
		execs:             m.Counter(p + "execs"),
		cacheHits:         m.Counter(p + "pricecache_hits"),
		cacheMisses:       m.Counter(p + "pricecache_misses"),
		cacheEvictions:    m.Counter(p + "pricecache_evictions"),
		pricingsCoalesced: m.Counter(p + "pricings_coalesced"),
		rfbsQueued:        m.Counter(p + "rfbs_queued"),
		rfbQueueDepth:     m.Gauge(p + "rfb_queue_depth"),
		rfbsInflight:      m.Gauge(p + "rfbs_inflight"),
		rewriteMS:         m.Histogram(p + "rewrite_ms"),
		dpMS:              m.Histogram(p + "dp_ms"),
		execMS:            m.Histogram(p + "exec_ms"),
	})
}

// SetFaultPolicy attaches (or with nil detaches) the fault policy guarding
// the node's subcontract exchanges. Call it during federation setup, before
// negotiations start: unlike SetObs it is not synchronized against in-flight
// calls.
func (n *Node) SetFaultPolicy(p *trading.FaultPolicy) { n.cfg.Faults = p }

// msSince converts an elapsed interval to histogram milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}
