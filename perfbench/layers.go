package main

import (
	"fmt"
	"io"
	"sort"
)

// layerMetrics fills the per-layer metrics of a traced run. Counts are per
// completed query of the traced phase unless the name says otherwise.
func layerMetrics(rep *report, w io.Writer, rn *runner, tr *tracing, plain []*loadResult, traced *loadResult, rp replayed) {
	n := float64(traced.completed())
	if n == 0 {
		n = 1
	}
	ws := tr.ws
	nodes := rn.in.fed.Nodes
	var afterWrite []sample
	for _, s := range traced.samples {
		if s.afterWrite {
			afterWrite = append(afterWrite, s)
		}
	}
	busyMS := func(c *callStats) float64 { return float64(c.busy.Load()) / 1e6 / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits, misses := tr.nodeCounter(nodes, "pricecache_hits"), tr.nodeCounter(nodes, "pricecache_misses")
	// Workloads without a writer report 0 for the write-side metrics.
	var insertUS, lagMS []float64
	for _, wr := range traced.writes {
		insertUS = append(insertUS, float64(wr.insert.Nanoseconds())/1e3)
		lagMS = append(lagMS, ms(wr.lag))
	}
	var plainN int
	var plainS float64
	for _, lr := range plain {
		plainN += lr.completed()
		plainS += lr.elapsed.Seconds()
	}
	qpsPlain, qpsTraced := float64(plainN)/plainS, traced.qps()

	rep.set("core.optimize_ms", distOf(traced.samples, optimizeOf).p50(), "ms")
	rep.set("core.iterations", float64(traced.iterations)/n, "count")
	rep.set("core.rfbs_sent", float64(traced.rfbs)/n, "count")
	rep.set("core.queries_asked", float64(traced.asked)/n, "count")
	rep.set("core.offers_received", float64(traced.offers)/n, "count")
	rep.set("core.plangen_us", rp.plangenUS, "us")
	rep.set("core.plangen_allocs", rp.plangenAllocs, "count")
	rep.set("core.analyse_us", rp.analyseUS, "us")
	rep.set("core.optimize_after_write_ms", distOf(afterWrite, optimizeOf).p50(), "ms")

	rep.set("node.request_bids.calls", float64(ws.requestBids.calls.Load())/n, "count")
	rep.set("node.request_bids.busy_ms", busyMS(&ws.requestBids), "ms")
	rep.set("node.improve_bids.calls", float64(ws.improveBids.calls.Load())/n, "count")
	rep.set("node.improve_bids.busy_ms", busyMS(&ws.improveBids), "ms")
	rep.set("node.award.calls", float64(ws.award.calls.Load())/n, "count")
	rep.set("node.execute.calls", float64(ws.execute.calls.Load())/n, "count")
	rep.set("node.execute.busy_ms", busyMS(&ws.execute), "ms")
	rep.set("node.errors", float64(ws.errors.Load()), "count")
	rep.set("node.rfbs_queued", float64(tr.nodeCounter(nodes, "rfbs_queued")), "count")

	rep.set("trading.offers_per_reply", ratio(ws.offers.Load(), ws.replies.Load()), "count")
	rep.set("trading.empty_reply_ratio", ratio(ws.emptyReplies.Load(), ws.replies.Load()), "ratio")
	rep.set("trading.win_ratio", ratio(tr.nodeCounter(nodes, "offers_won"), ws.offers.Load()), "ratio")

	rep.set("pricecache.hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("pricecache.misses_per_query", float64(misses)/n, "count")
	rep.set("pricecache.evictions", float64(tr.nodeCounter(nodes, "pricecache_evictions")), "count")

	rep.set("rewrite.for_seller_us", rp.rewriteUS, "us")
	rep.set("rewrite.empty_ratio", rp.rewriteEmpty, "ratio")
	rep.set("localopt.optimize_us", rp.localoptUS, "us")
	rep.set("localopt.optimize_allocs", rp.localoptAllocs, "count")
	rep.set("sqlparse.parse_us", rp.parseUS, "us")
	rep.set("sqlparse.print_us", rp.printUS, "us")
	rep.set("sqlparse.parse_allocs", rp.parseAllocs, "count")
	rep.set("expr.simplify_us", rp.simplifyUS, "us")

	rep.set("exec.first_batch_ms", distOf(traced.samples, firstBatchOf).p50(), "ms")
	rep.set("exec.drain_ms", distOf(traced.samples, func(s sample) float32 { return s.drain }).p50(), "ms")
	rep.set("exec.batches_per_query", float64(traced.batches)/n, "count")
	rep.set("exec.rows_per_query", float64(traced.rows)/n, "count")

	rep.set("netsim.rfb_kb_per_query", float64(ws.rfbBytes.Load())/1024/n, "kB")
	rep.set("netsim.bid_kb_per_query", float64(ws.bidBytes.Load())/1024/n, "kB")
	rep.set("netsim.exec_kb_per_query", float64(ws.execBytes.Load())/1024/n, "kB")

	rep.set("storage.insert_us", mean(insertUS), "us")
	rep.set("writer.lag_ms", mean(lagMS), "ms")
	rep.set("trace.overhead_pct", (qpsPlain-qpsTraced)/qpsPlain*100, "%")

	// Per-node price-cache attribution: misses next to the node's empty
	// rewrites, which return before the cache is filled.
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "# %-8s %10s %10s %10s %14s\n", "node", "hits", "misses", "hit_ratio", "rewrites_empty")
	for _, id := range ids {
		h := tr.metrics.Counter("node." + id + ".pricecache_hits").Value()
		m := tr.metrics.Counter("node." + id + ".pricecache_misses").Value()
		e := tr.metrics.Counter("node." + id + ".rewrites_empty").Value()
		fmt.Fprintf(w, "# %-8s %10d %10d %10.4f %14d\n", id, h, m, ratio(h, h+m), e)
	}
	fmt.Fprintf(w, "# qps untraced %.2f, traced %.2f\n", qpsPlain, qpsTraced)
}
