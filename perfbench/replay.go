package main

import (
	"math/rand"
	"runtime"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/localopt"
	"qtrade/internal/plan"
	"qtrade/internal/rewrite"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// negotiation is one captured buyer negotiation: its query and the final
// standing-offer pool plan generation chose from.
type negotiation struct {
	sql  string
	pool []trading.Offer
}

// maxNegotiations bounds the negotiations kept for replay.
const maxNegotiations = 400

// captureNeg keeps a negotiation's query and final pool for replay.
func (rn *runner) captureNeg(sql string, pool []trading.Offer) {
	rn.negMu.Lock()
	defer rn.negMu.Unlock()
	if len(rn.negs) < maxNegotiations {
		rn.negs = append(rn.negs, negotiation{sql: sql, pool: pool})
	}
}

func (rn *runner) negotiations() []negotiation {
	rn.negMu.Lock()
	defer rn.negMu.Unlock()
	return append([]negotiation(nil), rn.negs...)
}

// replayBudget is how long each replayed function is timed for.
const replayBudget = 250 * time.Millisecond

// replayed is the per-call cost of each replayed layer function.
type replayed struct {
	parseUS, parseAllocs, printUS, simplifyUS float64
	rewriteUS, rewriteEmpty                   float64
	localoptUS, localoptAllocs                float64
	plangenUS, plangenAllocs, analyseUS       float64
}

// timeEach calls fn on inputs 0..n-1, cycling, until budget has elapsed
// (at least one call), and returns the mean microseconds and allocations
// per call. Replay runs after load stops, so the allocation count is the
// function's own.
func timeEach(n int, budget time.Duration, fn func(i int)) (us, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < budget || calls == 0 {
		fn(calls % n)
		calls++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / 1e3 / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// replay times the layer functions a negotiation walks, on the inputs the
// traced run captured: RFB query SQL through parse, print, simplify, the
// seller rewrite and the seller DP (against the receiving node's store),
// and whole negotiations through buyer plan generation and the analyser.
func (rn *runner) replay(caps []capturedRFB, negs []negotiation, seed int64) replayed {
	var out replayed
	fed := rn.in.fed
	sch := fed.Schema
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
	r.Shuffle(len(negs), func(i, j int) { negs[i], negs[j] = negs[j], negs[i] })

	var sqls []string
	var sels []*sqlparse.Select
	var nodes []string
	for _, c := range caps {
		sel, err := sqlparse.ParseSelect(c.sql)
		if err != nil {
			continue
		}
		plan.Qualify(sel, sch)
		sqls = append(sqls, c.sql)
		sels = append(sels, sel)
		nodes = append(nodes, c.node)
	}
	out.parseUS, out.parseAllocs = timeEach(len(sqls), replayBudget, func(i int) { _, _ = sqlparse.ParseSelect(sqls[i]) })
	out.printUS, _ = timeEach(len(sels), replayBudget, func(i int) { _ = sels[i].SQL() })
	out.simplifyUS, _ = timeEach(len(sels), replayBudget, func(i int) { _ = expr.Simplify(sels[i].Where) })

	rws := make([]*rewrite.Rewritten, len(sels))
	empty := 0
	for i, sel := range sels {
		rw, err := rewrite.ForSeller(sel, sch, fed.Nodes[nodes[i]].Store())
		if err != nil {
			empty++
			continue
		}
		rws[i] = rw
	}
	if len(sels) > 0 {
		out.rewriteEmpty = float64(empty) / float64(len(sels))
	}
	out.rewriteUS, _ = timeEach(len(sels), replayBudget, func(i int) {
		_, _ = rewrite.ForSeller(sels[i], sch, fed.Nodes[nodes[i]].Store())
	})
	var priced []int
	for i, rw := range rws {
		if rw != nil {
			priced = append(priced, i)
		}
	}
	out.localoptUS, out.localoptAllocs = timeEach(len(priced), replayBudget, func(k int) {
		i := priced[k]
		n := fed.Nodes[nodes[i]]
		_, _ = localopt.Optimize(rws[i].Sel, sch, n.Store(), n.CostModel())
	})

	model := cost.Default()
	var nsels []*sqlparse.Select
	var pools [][]trading.Offer
	for _, ng := range negs {
		sel, err := sqlparse.ParseSelect(ng.sql)
		if err != nil {
			continue
		}
		plan.Qualify(sel, sch)
		nsels = append(nsels, sel)
		pools = append(pools, ng.pool)
	}
	cands := make([][]core.Candidate, len(nsels))
	for i := range nsels {
		cands[i], _ = core.Generate(nsels[i], sch, model, core.GenDP, 0, pools[i])
		if len(cands[i]) > 3 {
			cands[i] = cands[i][:3]
		}
	}
	out.plangenUS, out.plangenAllocs = timeEach(len(nsels), replayBudget, func(i int) {
		_, _ = core.Generate(nsels[i], sch, model, core.GenDP, 0, pools[i])
	})
	keys := make([]string, len(nsels))
	for i, sel := range nsels {
		keys[i] = sel.SQL()
	}
	out.analyseUS, _ = timeEach(len(nsels), replayBudget, func(i int) {
		_ = core.Analyse(nsels[i], sch, cands[i], map[string]bool{keys[i]: true}, 0)
	})
	return out
}
