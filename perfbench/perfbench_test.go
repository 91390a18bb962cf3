package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	d := make(dist, 100)
	for i := range d {
		d[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 50, 50}, {0.99, 99, 1}, {0.9, 90, 10}, {1, 100, 0}, {0, 1, 99}} {
		v, beyond := d.quantile(c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("q%g = (%g, %d), want (%g, %d)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, b := (dist{}).quantile(0.5); v != 0 || b != 0 {
		t.Errorf("empty sample: (%g, %d)", v, b)
	}
}

func TestGeomeanFloorsSamples(t *testing.T) {
	if g := geomean([]float64{1, 100}, 0.001); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %g, want 10", g)
	}
	if g := geomean([]float64{0, 1}, 0.01); math.Abs(g-0.1) > 1e-9 {
		t.Errorf("geomean(0, 1) with floor 0.01 = %g, want 0.1", g)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{19, 0, false}, {20, 0.5, true}, {39, 0.5, true}, {40, 0.75, true}, {100, 0.9, true},
		{999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}} {
		d := make(dist, c.n)
		for i := range d {
			d[i] = float64(i)
		}
		q, _, ok := d.tailPercentile()
		if ok != c.ok || q != c.q {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, q*100, ok, c.q*100, c.ok)
			continue
		}
		if ok {
			if _, beyond := d.quantile(q); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d beyond", c.n, q*100, beyond)
			}
		}
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(rep *report) []string {
	var out []string
	for n := range rep.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nonZero names, per workload, per-layer metrics the workload exercises.
var nonZero = map[string][]string{
	"telco-hot":    {"pricecache.hit_ratio", "sqlparse.parse_us", "expr.simplify_us", "rewrite.for_seller_us", "core.analyse_us"},
	"chain-cold":   {"localopt.optimize_us", "core.plangen_us", "node.request_bids.calls", "trading.win_ratio", "netsim.rfb_kb_per_query"},
	"telco-ingest": {"storage.insert_us", "writer.lag_ms", "exec.batches_per_query", "node.execute.busy_ms", "core.optimize_after_write_ms"},
}

// TestSmokeEmitsEveryMetric runs every workload at tiny scale, untraced and
// traced, and checks each run passes the gate and emits exactly the
// metrics BENCHMARK.json declares.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			rep, err := run(options{workload: sp.name, seed: 3, seconds: 1, trace: traced, tiny: true, corrupt: -1}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", sp.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := names(rep); !equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", sp.name, traced, got, want)
			}
			if !traced {
				for _, n := range endToEnd {
					if rep.Metrics[n].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", sp.name, n, rep.Metrics[n].Value)
					}
				}
				continue
			}
			for _, n := range nonZero[sp.name] {
				if rep.Metrics[n].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %g, want > 0", sp.name, n, rep.Metrics[n].Value)
				}
			}
		}
	}
}

// TestGateCatchesCorruptAnswer corrupts one answer on the harness side and
// checks the run fails the gate.
func TestGateCatchesCorruptAnswer(t *testing.T) {
	rep, err := run(options{workload: "telco-hot", seed: 5, seconds: 0.5, tiny: true, corrupt: 0}, io.Discard)
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("err = %v, want the correctness gate to fail", err)
	}
	if rep == nil || rep.Correct || rep.Failed < 1 {
		t.Fatalf("report = %+v, want correct=false and a failed query", rep)
	}
}

// TestGateChecksWriteWindow checks that an answer given while writes ran
// passes only if it matches the oracle as of a write count inside the
// query's window.
func TestGateChecksWriteWindow(t *testing.T) {
	sp, _ := specByName("telco-ingest")
	rn, _, err := setUp(sp, options{workload: sp.name, seed: 2, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := -1
	for i, tm := range rn.in.templates {
		if tm.delta != nil {
			tmpl = i // the first office's customer scan
			break
		}
	}
	sql := rn.in.templates[tmpl].warm
	// asOf[k] is the oracle's answer after k writes; writes go round-robin
	// over the four offices, so the scanned office gets writes 0 and 4.
	var asOf []fingerprint
	for k := 0; ; k++ {
		resp, err := rn.in.fed.GroundTruth(sql)
		if err != nil {
			t.Fatal(err)
		}
		asOf = append(asOf, fingerprintOf(resp.Rows))
		if k == 6 {
			break
		}
		if wr := rn.write(time.Now()); wr.err != nil {
			t.Fatal(wr.err)
		}
	}
	for _, c := range []struct {
		answer, from, to int64
		ok               bool
	}{
		{0, 0, 0, true},  // write 0 may have been in flight
		{1, 0, 0, true},  // ... or applied
		{0, 1, 3, false}, // write 0 was applied before the query began
		{5, 0, 3, false}, // write 4 began after the query ended
		{5, 0, 4, true},
		{6, 6, 6, true},
	} {
		log := newQueryLog()
		log.add(qresult{q: query{sql: sql, tmpl: tmpl}, fp: asOf[c.answer], from: c.from, to: c.to}, sample{})
		v := &verdict{}
		if err := rn.check(v, log); err != nil {
			t.Fatal(err)
		}
		if ok := v.failed == 0; ok != c.ok || v.checked != 1 {
			t.Errorf("answer after %d writes, window %d..%d: passed=%v (checked %d), want %v",
				c.answer, c.from, c.to, ok, v.checked, c.ok)
		}
	}
}

// TestSeedDeterminesInputs checks that the same seed draws the same query
// and write sequence, and another seed a different one.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, sp := range specs {
		a, b, c := sp.build(7, true), sp.build(7, true), sp.build(8, true)
		same, differ := true, false
		for i := 0; i < 50; i++ {
			qa, qb, qc := a.next(i), b.next(i), c.next(i)
			same = same && qa == qb
			differ = differ || qa != qc
		}
		if !same || !differ {
			t.Errorf("%s: same seed same queries=%v, other seed differs=%v", sp.name, same, differ)
		}
		if sp.writeRate == 0 {
			continue
		}
		if wa, wb := a.nextWrite(3), b.nextWrite(3); wa.table != wb.table || wa.part != wb.part || len(wa.rows) != len(wb.rows) {
			t.Errorf("%s: write 3 differs between builds of one seed", sp.name)
		}
	}
}
