// Package pricecache memoizes the seller's valuation of requested queries.
// In the paper's seller (§3.4–3.5) an offer is a pure function of the
// requested query, the node's fragments and statistics, and its cost model;
// only the strategy module's margin moves between rounds. The QT buyer
// re-issues largely overlapping query sets across negotiation iterations
// (every iteration's RFB repeats the still-open queries of the previous
// one), so a seller that keeps its whole valuation of a query — parse,
// partition-restriction rewrite, modified-DP partials and the offers built
// from them — answers the repeat RFB at id-minting and strategy-pricing
// cost only.
//
// Entries are keyed by the wire SQL of the requested query *and* the
// versions of everything the cached computation read: the store's data
// epoch, its statistics version, and a hash of the node's cost-model
// constants. Any store mutation bumps an epoch, which changes the key, which
// makes every older entry unreachable — a stale price can never be returned,
// it can only age out of the LRU. A query the node cannot bid on (it does
// not parse, the node holds none of its relations, the local restriction
// contradicts it, or the DP finds no plan) is cached too, as a negative
// entry, so repeated empty rewrites cost one lookup. Offer prices are NOT
// cached: strategies are adaptive (competitive margins move between rounds,
// load-aware ones follow the node's load), so the seller prices every
// template through its strategy on every RFB, hit or miss.
//
// Entries are immutable once stored. Offers emitted from a template share
// its Bindings, Parts and Cols with the cache (and with every other offer
// emitted from it), so neither the seller nor any buyer may modify them;
// the trading and buyer code only read them.
package pricecache

import (
	"container/list"
	"hash/fnv"
	"math"
	"sync"

	"qtrade/internal/cost"
	"qtrade/internal/localopt"
	"qtrade/internal/rewrite"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// Key identifies one priced query under one world state.
type Key struct {
	// SQL is the requested query's text exactly as it arrived on the wire.
	SQL string
	// Epoch and StatsVersion are the store counters at pricing time.
	Epoch        int64
	StatsVersion int64
	// CostHash fingerprints the cost-model constants the DP priced under.
	CostHash uint64
}

// Entry is the seller's complete valuation of one query: the parsed and
// schema-qualified query, its seller rewrite against local fragments, the
// modified-DP result holding every optimal partial, and the local offers
// built from them. A negative entry (Result == nil) records that the node
// cannot bid on the query. Entries are treated as immutable by all readers;
// concurrent pricing workers share them without copying.
type Entry struct {
	Sel       *sqlparse.Select
	Rewritten *rewrite.Rewritten
	Result    *localopt.Result
	// Offers holds the local offer templates in pricing-walk order: DP
	// partials, then view offers, then the partial-aggregate offer.
	Offers []Template
}

// Negative reports whether the entry records a query the node cannot bid on.
func (e Entry) Negative() bool { return e.Result == nil }

// Template is one local offer without its per-RFB fields: OfferID, RFBID,
// QID and Price are zero and are filled in each time the offer is emitted.
type Template struct {
	// Kind is the offer-id kind: "o" DP partial, "v" view, "a" partial
	// aggregate.
	Kind  string
	Offer trading.Offer
	// Truth is the truthful valuation the strategy module prices from.
	Truth float64
}

// Cache is a mutex-guarded LRU of priced queries. The zero value is not
// usable; call New.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *slot
	byKey map[Key]*list.Element

	hits, misses, evictions int64
}

type slot struct {
	key Key
	e   Entry
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, order: list.New(), byKey: map[Key]*list.Element{}}
}

// Get returns the entry for k, marking it most recently used.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*slot).e, true
}

// Put stores e under k, evicting least-recently-used entries over capacity.
// It returns how many entries were evicted.
func (c *Cache) Put(k Key, e Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*slot).e = e
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[k] = c.order.PushFront(&slot{key: k, e: e})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*slot).key)
		evicted++
	}
	c.evictions += int64(evicted)
	return evicted
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// HashModel fingerprints a cost model's constants for use in Key.CostHash.
// Nodes hold their model immutable after construction, so this is computed
// once per node.
func HashModel(m *cost.Model) uint64 {
	h := fnv.New64a()
	for _, f := range []float64{
		m.CPURow, m.IORow, m.HashBuildRow, m.HashProbeRow, m.SortRow,
		m.AggRow, m.NetLatency, m.BytesPerMS, m.StartupCost,
	} {
		b := math.Float64bits(f)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
