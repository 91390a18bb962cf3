package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// spec names one workload and how it is loaded. The workloads differ in
// the layer that dominates their cost (see README.md):
//
//   - telco-hot: small repeated queries whose pricing stays in every
//     seller's price cache, so fixed per-negotiation costs dominate;
//   - chain-cold: six-way joins with a fresh literal per query, so seller
//     rewrite + DP and buyer plan generation dominate and the cross-query
//     cache is bypassed;
//   - telco-ingest: large streamed answers under a concurrent open-loop
//     writer, so execution dominates and every write invalidates pricing.
type spec struct {
	name    string
	clients int // closed-loop query clients
	// writeRate is the open-loop writer's rate during load, in writes per
	// second; 0 means the workload does not write.
	writeRate float64
	build     func(seed int64, tiny bool) *instance
}

var specs = []spec{
	{name: "telco-hot", clients: 2, build: buildTelcoHot},
	{name: "chain-cold", clients: 2, build: buildChainCold},
	{name: "telco-ingest", clients: 1, writeRate: 200, build: buildTelcoIngest},
}

// ingestBatch is the customers per telco-ingest write. At 200 writes/s
// nearly every reader query starts after a write (its gap to the previous
// query exceeds the 5 ms between writes), so the share of queries that pay
// for re-pricing does not depend on how fast the host runs the reader.
// A 30 s run adds about 4,000 customers to the 20,000 loaded.
const ingestBatch = 1

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// template is one query shape of a workload.
type template struct {
	name string
	// warm is the template's representative SQL, run once during warm-up
	// and again after writes to re-check the answer against the oracle.
	warm string
	// delta returns the rows a write adds to the template's answer. It is
	// nil when the workload's writes cannot change the answer (new
	// customers have no invoice lines). The correctness gate uses it to
	// check answers given while the writer runs (see check).
	delta func(w write) []value.Row
	// weight is the template's share of the mix; 0 counts as 1.
	weight int
}

// query is one generated query.
type query struct {
	sql  string
	tmpl int
}

// write is one generated insert: rows appended to one fragment on every
// federation node holding it, then mirrored into the oracle.
type write struct {
	table, part string
	rows        []value.Row
}

// instance is a built workload: the federation with its oracle, the query
// templates, and the seeded generators of queries and writes.
type instance struct {
	fed       *workload.Federation
	templates []template
	// next draws the i-th query of the run's sequence. The sequence depends
	// only on the seed; clients take queries from it in arrival order.
	next func(i int) query
	// period is the length of the mix's blocks: every aligned run of
	// period queries asks each template (or chain-cold card) in the same
	// proportion, whatever the seed.
	period int
	// nextWrite builds the i-th write of a workload that writes.
	nextWrite func(i int) write
}

var telcoOffices = []string{"Corfu", "Myconos", "Athens", "Rhodes"}

func officeList(mask int) []string {
	var out []string
	for i, o := range telcoOffices {
		if mask&(1<<i) != 0 {
			out = append(out, o)
		}
	}
	return out
}

func quoted(offices []string) string {
	q := make([]string, len(offices))
	for i, o := range offices {
		q[i] = "'" + o + "'"
	}
	return strings.Join(q, ", ")
}

// customerWrites inserts new customers into the offices' single-copy
// customer fragments, round-robin, batch per write. New customer ids start
// above every loaded one and have no invoice lines.
func customerWrites(firstID int64, batch int) func(i int) write {
	return func(i int) write {
		off := telcoOffices[i%len(telcoOffices)]
		rows := make([]value.Row, batch)
		for k := range rows {
			id := firstID + int64(i*batch+k)
			rows[k] = value.Row{value.NewInt(id), value.NewStr(fmt.Sprintf("new%d", id)), value.NewStr(off)}
		}
		return write{table: "customer", part: strings.ToLower(off), rows: rows}
	}
}

// buildTelcoHot: the paper's §1 federation, 4 offices plus the buyer hq,
// queried with 12 fixed totals and count queries over office subsets.
func buildTelcoHot(seed int64, tiny bool) *instance {
	cust := 50
	if tiny {
		cust = 10
	}
	fed := workload.NewTelco(workload.TelcoOptions{Offices: telcoOffices, CustomersPerOffice: cust, Seed: seed})
	// The seed picks which office subsets are asked, not how many offices
	// they span, so the mix's cost does not depend on the seed.
	r := rand.New(rand.NewSource(seed))
	bySize := map[int][]int{}
	for _, m := range r.Perm(1<<len(telcoOffices) - 1) {
		m++
		k := len(officeList(m))
		bySize[k] = append(bySize[k], m)
	}
	take := func(k int) []string {
		m := bySize[k][0]
		bySize[k] = append(bySize[k][1:], m)
		return officeList(m)
	}
	var ts []template
	for _, k := range []int{1, 2, 2, 3, 3, 4} {
		ts = append(ts, template{name: "totals", warm: workload.TotalsQuery(take(k)...)})
	}
	for _, k := range []int{1, 1, 2, 2, 3, 4} {
		ts = append(ts, template{name: "count",
			warm: fmt.Sprintf("SELECT c.office, COUNT(*) AS n FROM customer c WHERE c.office IN (%s) GROUP BY c.office ORDER BY c.office", quoted(take(k)))})
	}
	next, period := fixedMix(seed, ts)
	return &instance{fed: fed, templates: ts, next: next, period: period}
}

// fixedMix draws the templates' fixed SQL in proportion to their weights,
// in blocks of the returned period (see deckDraw).
func fixedMix(seed int64, ts []template) (func(i int) query, int) {
	var deck []int
	for t, tm := range ts {
		for k := 0; k < tm.weight || k == 0; k++ {
			deck = append(deck, t)
		}
	}
	return func(i int) query {
		t := deck[deckDraw(seed, len(deck), i)]
		return query{sql: ts[t].warm, tmpl: t}
	}, len(deck)
}

// deckDraw returns the card of the i-th draw from a deck of n cards. The
// draws are a series of blocks, each a seeded shuffle of the whole deck,
// so every run draws each card in the same proportion and the seed changes
// only the order. The draw is computed from the seed and i alone.
func deckDraw(seed int64, n, i int) int {
	block := make([]int, n)
	for j := range block {
		block[j] = j
	}
	h := uint64(seed)<<32 ^ uint64(i/n)
	for j := n - 1; j > 0; j-- {
		h = splitmix(h)
		k := int(h % uint64(j+1))
		block[j], block[k] = block[k], block[j]
	}
	return block[i%n]
}

// splitmix is the SplitMix64 finalizer, a well-mixed 64-bit hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// buildChainCold: a 6-relation chain over 8 nodes, 2 range partitions and
// 2 replicas per relation. Every query restricts r1 or r6 to a fresh
// seeded pk range, so no canonical SQL repeats. The restricted relation
// and the range's width class come from a deck (see deckDraw), so the mix
// of range sizes, which sets a query's cost, does not depend on the seed;
// the seed places each range and picks its width within the class.
func buildChainCold(seed int64, tiny bool) *instance {
	opts := workload.ChainOptions{Relations: 6, RowsPerRel: 400, Parts: 2, Nodes: 8, Replicas: 2, Seed: seed}
	if tiny {
		opts.RowsPerRel, opts.Nodes = 100, 4
	}
	fed := workload.NewChain(opts)
	base := workload.ChainQuery(opts, 0)
	ranged := func(rel, lo, hi int) string {
		return fmt.Sprintf("%s AND r%d.pk >= %d AND r%d.pk < %d", base, rel, lo, rel, hi)
	}
	rels := []int{1, opts.Relations}
	var ts []template
	for _, rel := range rels {
		ts = append(ts, template{name: fmt.Sprintf("chain-r%d-range", rel), warm: ranged(rel, 0, opts.RowsPerRel)})
	}
	used := map[string]bool{}
	for _, t := range ts {
		used[t.warm] = true
	}
	// Five width classes span a twentieth to a half of a relation; each
	// class has a twentieth of a relation's worth of widths. Query cost
	// grows with the width, and an odd number of equally drawn classes
	// puts the median query inside the middle class rather than on the
	// boundary between two.
	step := opts.RowsPerRel / 20
	var classes []int
	for w := step; w < opts.RowsPerRel/2; w += 2 * step {
		classes = append(classes, w)
	}
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed + 1))
	var seq []query
	next := func(i int) query {
		mu.Lock()
		defer mu.Unlock()
		for len(seq) <= i {
			card := deckDraw(seed, len(rels)*len(classes), len(seq))
			t, class := card%len(rels), classes[card/len(rels)]
			for tries := 0; ; tries++ {
				if tries == 10000 {
					panic("chain-cold: no fresh range left in a width class")
				}
				width := class + r.Intn(step)
				lo := r.Intn(opts.RowsPerRel - width + 1)
				sql := ranged(rels[t], lo, lo+width)
				if !used[sql] {
					used[sql] = true
					seq = append(seq, query{sql: sql, tmpl: t})
					break
				}
			}
		}
		return seq[i]
	}
	return &instance{fed: fed, templates: ts, next: next, period: len(rels) * len(classes)}
}

// buildTelcoIngest: 4 offices × 5,000 customers × 4 invoice lines, the
// 80k-line invoiceline table replicated on every office. The reader asks
// for large streamed answers; the writer adds customers.
func buildTelcoIngest(seed int64, tiny bool) *instance {
	cust := 5000
	if tiny {
		cust = 200
	}
	fed := workload.NewTelco(workload.TelcoOptions{Offices: telcoOffices, CustomersPerOffice: cust, LinesPerCustomer: 4, Seed: seed})
	r := rand.New(rand.NewSource(seed))
	// Window sizes and the set of window positions are fixed so the mix's
	// cost does not depend on the seed (see windowStarts); the seed
	// assigns the positions. Joins cover 1,000 customers of an office at
	// 4 lines each: 4k rows.
	var ts []template
	joinStarts := windowStarts(r, len(telcoOffices), cust-cust/5)
	for k, off := range telcoOffices {
		width := cust / 5
		lo := k*cust + 1 + joinStarts[k]
		ts = append(ts, template{name: "office-join", weight: 1,
			warm: fmt.Sprintf("SELECT c.custid, c.custname, i.invid, i.charge FROM customer c, invoiceline i "+
				"WHERE c.custid = i.custid AND c.office = '%s' AND c.custid >= %d AND c.custid < %d", off, lo, lo+width)})
	}
	total := len(telcoOffices) * cust
	scanStarts := windowStarts(r, 4, 1000)
	for k := 0; k < 4; k++ {
		// 1,000, 1,500, 2,000 and 2,500 customers at 4 lines each: 4k–10k rows.
		width := cust/5 + k*cust/10
		lo := 1 + scanStarts[k]*(total-width)/1000
		ts = append(ts, template{name: "line-range-scan", weight: 4,
			warm: fmt.Sprintf("SELECT i.invid, i.custid, i.charge FROM invoiceline i WHERE i.custid >= %d AND i.custid < %d", lo, lo+width)})
	}
	for _, off := range telcoOffices {
		ts = append(ts, template{name: "customer-scan", weight: 8, delta: officeCustomers(off),
			warm: fmt.Sprintf("SELECT c.custid, c.custname FROM customer c WHERE c.office = '%s'", off)})
	}
	// The all-office aggregate joins all 80k lines and is the slowest
	// query by far. At weight 1 of 53 it is 1.9% of queries: the closed
	// loop of a 30 s run holds about 15 of them, so its p99 falls among
	// them rather than at the edge between the two latency modes.
	ts = append(ts, template{name: "totals", warm: workload.TotalsQuery(telcoOffices...), weight: 1})
	in := &instance{fed: fed, templates: ts, nextWrite: customerWrites(int64(total)+1, ingestBatch)}
	in.next, in.period = fixedMix(seed, ts)
	return in
}

// officeCustomers is the customer-scan template's delta: the (custid,
// custname) of each customer a write adds to the office.
func officeCustomers(office string) func(w write) []value.Row {
	return func(w write) []value.Row {
		var out []value.Row
		for _, r := range w.rows {
			if r[2].S == office {
				out = append(out, value.Row{r[0], r[1]})
			}
		}
		return out
	}
}

// windowStarts returns n window starts in [0, span]: n evenly spaced
// positions in a seeded order, each moved by a seeded jitter of up to a
// fiftieth of the span. Sellers scan a fragment from its start, so the
// cost of a window's first batch grows with the rows before it; a start
// drawn anywhere made telco-ingest's mean first-batch cost differ by half
// from seed to seed.
func windowStarts(r *rand.Rand, n, span int) []int {
	j := span / 50
	out := make([]int, n)
	for i, p := range r.Perm(n) {
		out[i] = p*(span-j)/(n-1) + r.Intn(j+1)
	}
	return out
}

// apply inserts a write into every federation node holding its fragment.
func (in *instance) apply(w write) error {
	held := false
	for _, n := range in.fed.Nodes {
		if n.Store().Fragment(w.table, w.part) == nil {
			continue
		}
		held = true
		if err := n.Store().Insert(w.table, w.part, w.rows...); err != nil {
			return err
		}
	}
	if !held {
		return fmt.Errorf("no node holds %s/%s", w.table, w.part)
	}
	return nil
}

// mirror applies a write to the oracle, keeping ground truth current.
func (in *instance) mirror(w write) error {
	return in.fed.Oracle().Store().Insert(w.table, w.part, w.rows...)
}
