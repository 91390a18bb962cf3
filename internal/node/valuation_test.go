package node_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// valuationCase is one federation shape the valuation-cache tests price
// against: how to build it, a materialized view to place on one node, and
// the requested queries. Queries include an unparsable one and one over no
// relation any node holds, so negative entries are exercised too.
type valuationCase struct {
	name    string
	build   func(strategy func() trading.SellerStrategy, configure func(*node.Config)) *workload.Federation
	viewAt  string
	viewSQL string
	queries []string
}

var valuationCases = []valuationCase{
	{
		name: "telco",
		build: func(strategy func() trading.SellerStrategy, configure func(*node.Config)) *workload.Federation {
			return workload.NewTelco(workload.TelcoOptions{Seed: 3, Strategy: strategy, Configure: configure})
		},
		viewAt: "myconos",
		viewSQL: `SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
			WHERE c.custid = i.custid GROUP BY c.office, c.custid`,
		queries: []string{
			workload.TotalsQuery("Corfu", "Myconos"),
			`SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
				WHERE c.custid = i.custid GROUP BY c.office`,
			"SELECT c.custname FROM customer c WHERE c.office IN ('Corfu', 'Athens')",
			"SELECT c.office, COUNT(*) AS n FROM customer c GROUP BY c.office",
			"SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 50",
			"SELECT x.a FROM nowhere x",
			"SELEC broken",
		},
	},
	{
		name: "chain",
		build: func(strategy func() trading.SellerStrategy, configure func(*node.Config)) *workload.Federation {
			return workload.NewChain(workload.ChainOptions{Relations: 4, RowsPerRel: 200, Parts: 2, Nodes: 4,
				Seed: 5, Strategy: strategy, Configure: configure})
		},
		viewAt:  "n0",
		viewSQL: "SELECT r1.pk, r1.v FROM r1 WHERE r1.pk < 150",
		queries: []string{
			workload.ChainQuery(workload.ChainOptions{Relations: 4, RowsPerRel: 200}, 0.25),
			workload.ChainQuery(workload.ChainOptions{Relations: 3, RowsPerRel: 200}, 1),
			"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk >= 50",
			"SELECT r1.pk, r1.v FROM r1 WHERE r1.pk < 40",
			"SELECT r3.fk, SUM(r3.v) AS s, COUNT(*) AS n FROM r3 GROUP BY r3.fk",
			"SELECT r9.pk FROM r9",
			"SELEC broken",
		},
	},
}

var valuationStrategies = []struct {
	name      string
	strategy  func() trading.SellerStrategy
	loadAware bool
}{
	{name: "cooperative"},
	{name: "competitive", strategy: func() trading.SellerStrategy { return trading.NewCompetitive() }},
	{name: "loadaware", strategy: func() trading.SellerStrategy { return trading.NewCompetitive() }, loadAware: true},
}

// priceLog wraps a node's strategy and records every Price call in order.
type priceLog struct {
	trading.SellerStrategy
	mu    sync.Mutex
	calls []string
}

func (l *priceLog) Price(qid string, truth float64) float64 {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf("%s %v", qid, truth))
	l.mu.Unlock()
	return l.SellerStrategy.Price(qid, truth)
}

// buildValuationFed builds one federation of the case with §3.5
// subcontracting between all nodes, aggregate pushdown and view offers on,
// and the price cache on or off. Nodes price serially (Workers 1), so each
// node's Price calls come in one deterministic order, which logs records.
func buildValuationFed(t *testing.T, c valuationCase, strategy func() trading.SellerStrategy, loadAware, cache bool) (*workload.Federation, map[string]*priceLog) {
	t.Helper()
	var fed *workload.Federation
	logs := map[string]*priceLog{}
	f := c.build(strategy, func(cfg *node.Config) {
		id := cfg.ID
		cfg.SubcontractPeers = func() map[string]trading.Peer { return fed.Net.Peers(id) }
		cfg.LoadAwarePricing = loadAware
		cfg.Workers = 1
		if !cache {
			cfg.PriceCacheSize = -1
		}
		inner := cfg.Strategy
		if inner == nil {
			inner = trading.Cooperative{}
		}
		logs[id] = &priceLog{SellerStrategy: inner}
		cfg.Strategy = logs[id]
	})
	fed = f
	truth, err := f.GroundTruth(c.viewSQL)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]catalog.ColumnDef, len(truth.Cols))
	for i, col := range truth.Cols {
		cols[i] = catalog.ColumnDef{Name: col.Name, Kind: col.Kind}
	}
	if err := f.Nodes[c.viewAt].Store().AddView(&storage.MaterializedView{
		Name: "v1", SQL: c.viewSQL, Columns: cols, Rows: truth.Rows,
	}); err != nil {
		t.Fatal(err)
	}
	return f, logs
}

func valuationRFB(id string, queries []string) trading.RFB {
	rfb := trading.RFB{RFBID: id, BuyerID: "buyer"}
	for i, q := range queries {
		rfb.Queries = append(rfb.Queries, trading.QueryRequest{QID: fmt.Sprintf("q%d", i), SQL: q})
	}
	// The first query once more under another id: a repeat within one RFB.
	rfb.Queries = append(rfb.Queries, trading.QueryRequest{QID: "again", SQL: queries[0]})
	return rfb
}

func sortedNodeIDs(f *workload.Federation) []string {
	ids := make([]string, 0, len(f.Nodes))
	for id := range f.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// offerKind splits a node-minted offer id ("<node>/<rfbID>/<qid>/<kind><seq>")
// into its query id, kind letter and sequence number.
func offerKind(id string) (qid, kind string, seq int) {
	i := strings.LastIndex(id, "/")
	qid = id[strings.LastIndex(id[:i], "/")+1 : i]
	kind = id[i+1 : i+2]
	fmt.Sscan(id[i+2:], &seq)
	return qid, kind, seq
}

// checkWalkOrder pins the pricing walk's id order within each query: DP
// partials, then views, then subcontract offers, then the partial aggregate.
func checkWalkOrder(t *testing.T, offers []trading.Offer) {
	t.Helper()
	rank := map[string]int{"o": 0, "v": 1, "s": 2, "a": 3}
	bySeq := map[string]map[int]string{}
	for _, o := range offers {
		qid, kind, seq := offerKind(o.OfferID)
		if bySeq[qid] == nil {
			bySeq[qid] = map[int]string{}
		}
		bySeq[qid][seq] = kind
	}
	for qid, kinds := range bySeq {
		seqs := make([]int, 0, len(kinds))
		for seq := range kinds {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		for i := 1; i < len(seqs); i++ {
			if rank[kinds[seqs[i-1]]] > rank[kinds[seqs[i]]] {
				t.Fatalf("query %s: offer ids out of walk order: %v", qid, kinds)
			}
		}
	}
}

// TestValuationCacheByteIdentical pins that the price cache changes only how
// much work pricing takes: a cache-on federation and a cache-off twin answer
// the same repeated RFBs (fresh RFB ids each round) with identical offers —
// ids, props, prices, order and cap — across telco and chain schemas with
// views, aggregate pushdown and subcontracting, under cooperative,
// competitive and load-aware strategies. The strategy module must see the
// same Price calls in the same order on both. Between rounds every seller
// ends the negotiation with no award, so competitive margins decay and
// cached valuations must be re-priced at the moved margin.
func TestValuationCacheByteIdentical(t *testing.T) {
	for _, c := range valuationCases {
		for _, s := range valuationStrategies {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				on, onLog := buildValuationFed(t, c, s.strategy, s.loadAware, true)
				off, offLog := buildValuationFed(t, c, s.strategy, s.loadAware, false)
				m := obs.NewMetrics()
				on.SetObs(nil, m)
				kinds := map[string]bool{}
				var firstPrices, lastPrices []float64
				const rounds = 3
				for r := 0; r < rounds; r++ {
					rfb := valuationRFB(fmt.Sprintf("rfb-%d", r), c.queries)
					var prices []float64
					for _, id := range sortedNodeIDs(on) {
						want, err := off.Nodes[id].RequestBids(rfb)
						if err != nil {
							t.Fatal(err)
						}
						got, err := on.Nodes[id].RequestBids(rfb)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want.Offers, got.Offers) {
							t.Fatalf("round %d node %s: cached offers differ\nuncached: %+v\ncached:   %+v",
								r, id, want.Offers, got.Offers)
						}
						checkWalkOrder(t, got.Offers)
						for _, o := range got.Offers {
							_, kind, _ := offerKind(o.OfferID)
							kinds[kind] = true
							prices = append(prices, o.Price)
						}
					}
					for _, f := range []*workload.Federation{on, off} {
						for _, n := range f.Nodes {
							n.EndNegotiation(rfb.RFBID, nil)
						}
					}
					if r == 0 {
						firstPrices = prices
					}
					lastPrices = prices
				}
				var hits int64
				for id := range on.Nodes {
					hits += m.Counter("node." + id + ".pricecache_hits").Value()
					if !reflect.DeepEqual(offLog[id].calls, onLog[id].calls) {
						t.Errorf("node %s: strategy Price calls differ\nuncached: %v\ncached:   %v",
							id, offLog[id].calls, onLog[id].calls)
					}
				}
				if hits == 0 {
					t.Fatal("cache-on federation never hit its price cache")
				}
				for _, k := range []string{"o", "v", "s", "a"} {
					if !kinds[k] {
						t.Errorf("no %q offer was emitted; the case does not cover that template kind", k)
					}
				}
				if s.strategy != nil && reflect.DeepEqual(firstPrices, lastPrices) {
					t.Error("competitive margins did not move prices between rounds")
				}
			})
		}
	}
}

// TestPriceCacheNegativeEntry pins negative caching: a node holding none of
// the query's relations records that once (a miss) and answers repeats from
// the cache (hits, still counted as empty rewrites); once it gains data the
// store epoch moves, the entry becomes unreachable and the node re-prices
// and bids.
func TestPriceCacheNegativeEntry(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 1})
	hq := f.Nodes["hq"]
	m := obs.NewMetrics()
	hq.SetObs(nil, m)
	counters := func() (hits, misses, empty int64) {
		return m.Counter("node.hq.pricecache_hits").Value(),
			m.Counter("node.hq.pricecache_misses").Value(),
			m.Counter("node.hq.rewrites_empty").Value()
	}
	rfb := func(id string) trading.RFB {
		return trading.RFB{RFBID: id, BuyerID: "buyer", Queries: []trading.QueryRequest{
			{QID: "q0", SQL: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"},
		}}
	}
	bid := func(id string) []trading.Offer {
		t.Helper()
		rep, err := hq.RequestBids(rfb(id))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Offers
	}
	if offers := bid("r1"); len(offers) != 0 {
		t.Fatalf("data-less node bid %d offers", len(offers))
	}
	if h, mi, e := counters(); h != 0 || mi != 1 || e != 1 {
		t.Fatalf("after first RFB hits/misses/empty = %d/%d/%d, want 0/1/1", h, mi, e)
	}
	if offers := bid("r2"); len(offers) != 0 {
		t.Fatalf("negative hit bid %d offers", len(offers))
	}
	if h, mi, e := counters(); h != 1 || mi != 1 || e != 2 {
		t.Fatalf("after repeat hits/misses/empty = %d/%d/%d, want 1/1/2", h, mi, e)
	}

	cust, _ := f.Schema.Table("customer")
	if _, err := hq.Store().CreateFragment(cust, "corfu"); err != nil {
		t.Fatal(err)
	}
	if err := hq.Store().Insert("customer", "corfu",
		value.Row{value.NewInt(1), value.NewStr("alice"), value.NewStr("Corfu")}); err != nil {
		t.Fatal(err)
	}
	if offers := bid("r3"); len(offers) == 0 {
		t.Fatal("node holding the corfu partition still bids nothing: stale negative entry")
	}
	if h, mi, e := counters(); h != 1 || mi != 2 || e != 2 {
		t.Fatalf("after data arrived hits/misses/empty = %d/%d/%d, want 1/2/2", h, mi, e)
	}
	if offers := bid("r4"); len(offers) == 0 {
		t.Fatal("cached positive entry bid nothing")
	}
	if h, mi, _ := counters(); h != 2 || mi != 2 {
		t.Fatalf("after positive repeat hits/misses = %d/%d, want 2/2", h, mi)
	}
}

// TestPriceCacheConcurrentHits prices the same cached queries from many
// goroutines at once while every emitted offer is read — its shared
// Bindings, Parts and Cols walked — and while buyers negotiate over the same
// sellers. Run under -race it pins that cached valuations are only read.
func TestPriceCacheConcurrentHits(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 2,
		Configure: func(c *node.Config) { c.Workers = 4 }})
	seller := f.Nodes["myconos"]
	queries := []string{
		workload.TotalsQuery("Corfu", "Myconos"),
		"SELECT c.custname FROM customer c WHERE c.office IN ('Myconos', 'Athens')",
		"SELECT x.a FROM nowhere x",
	}
	ref, err := seller.RequestBids(valuationRFB("warm", queries))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Offers) == 0 {
		t.Fatal("seller offered nothing")
	}
	const sellers, buyers, iters = 6, 2, 20
	var wg sync.WaitGroup
	for g := 0; g < sellers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("rfb-%d-%d", g, i)
				rep, err := seller.RequestBids(valuationRFB(id, queries))
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Offers) != len(ref.Offers) {
					t.Errorf("%s: %d offers, want %d", id, len(rep.Offers), len(ref.Offers))
					return
				}
				for k, o := range rep.Offers {
					w := ref.Offers[k]
					if o.SQL != w.SQL || o.Price != w.Price || o.Props != w.Props ||
						!reflect.DeepEqual(o.Parts, w.Parts) || !reflect.DeepEqual(o.Cols, w.Cols) ||
						strings.Join(o.Bindings, ",") != strings.Join(w.Bindings, ",") || o.WireSize() <= 0 {
						t.Errorf("%s: offer %d differs from the reference", id, k)
						return
					}
				}
				seller.EndNegotiation(id, nil)
			}
		}(g)
	}
	for g := 0; g < buyers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				if _, err := f.Optimize(f.BuyerConfig(), queries[0]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
