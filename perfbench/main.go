// Command perfbench is the repository's benchmark: it builds one of three
// seeded in-process federations, drives it with a query mix through
// core.Optimize and a drained core.ExecuteResultStream, checks every answer
// against the workload's oracle node, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics measured from outside the program).
// The last line of standard output is one JSON object; see README.md.
//
//	bash perfbench/run.sh --workload telco-hot --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool  // small federations and one set-up, for the self-tests
	corrupt  int64 // see runner.corrupt; -1 = off
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// errIncorrect reports a run whose answers failed the correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: telco-hot, chain-cold or telco-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of load: half serial probe, half closed loop")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run printing per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.corrupt = -1
	rep, err := run(o, os.Stdout)
	if rep != nil {
		line, jerr := json.Marshal(rep)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its report. The report is
// nil when the run could not measure at all; it is returned with
// errIncorrect when the correctness gate failed.
func run(o options, w io.Writer) (*report, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("need --seconds > 0")
	}
	rn, setupS, err := setUp(sp, o)
	if err != nil {
		return nil, err
	}
	rn.corrupt = o.corrupt
	d := time.Duration(o.seconds * float64(time.Second))
	rep := &report{Metrics: map[string]metricValue{}}
	v := &verdict{}
	var phases []*loadResult
	var tr *tracing
	if !o.trace {
		// The probe comes first so that it starts at a period boundary
		// of the query mix and asks the same mix on every run.
		phases = []*loadResult{rn.probe(d / 2), rn.load(d - d/2)}
	} else {
		// Untraced quarters before and after the traced half give
		// trace.overhead_pct its baseline; their order cancels a drift in
		// the workload over the run (telco-ingest's data grows).
		before := rn.load(d / 4)
		tr = attach(rn)
		rn.captureNegs = true
		traced := rn.load(d / 2)
		rn.captureNegs = false
		tr.detach(rn)
		phases = []*loadResult{before, rn.load(d / 4), traced}
	}
	writer := sp.writeRate > 0
	for _, lr := range phases {
		if err := rn.check(v, lr.queryLog); err != nil {
			return nil, err
		}
		rep.Attempted += int64(lr.attempts + len(lr.writes))
		for _, wr := range lr.writes {
			if wr.err != nil {
				v.fail(1, "write failed: "+wr.err.Error())
			}
		}
	}
	if writer {
		n, err := rn.recheck(v)
		if err != nil {
			return nil, err
		}
		rep.Attempted += int64(n)
	}
	last := phases[len(phases)-1]
	printProperties(w, rn, last)
	if o.trace {
		if writer {
			fmt.Fprintf(w, "# optimize p50 with no write since the previous run of the template: %.4f ms\n", rn.quietOptimize())
		}
		rp := rn.replay(tr.capturedList(), rn.negotiations(), o.seed)
		layerMetrics(rep, w, rn, tr, phases[:2], last, rp)
	} else {
		printProbe(w, phases[0])
		endToEnd(rep, phases[0], last, setupS)
	}
	rep.Failed = int64(v.failed)
	rep.Correct = rep.Failed == 0
	printMetrics(w, rep)
	fmt.Fprintf(w, "# gate: %d answers compared with the oracle, %d mismatches, %d failed of %d attempted\n",
		v.checked, v.mismatches, rep.Failed, rep.Attempted)
	if !rep.Correct {
		return rep, fmt.Errorf("%w: %s", errIncorrect, v.firstErr)
	}
	return rep, nil
}

// A run sets up at least minSetups times, and until minSetupTime has
// passed. A set-up of tens of milliseconds varies by half between
// repetitions (its warm-up queries are single samples of a wide latency
// distribution), so the median needs dozens of them to repeat from run to
// run.
const (
	minSetups    = 3
	minSetupTime = 3 * time.Second
)

// setUp builds the workload repeatedly (once for a tiny run) and returns
// the last build with the median set-up time: process CPU seconds, which
// leave out time the host gave to other tenants. One set-up is the
// federation build, its data load and one warm-up query per template; the
// warm-up builds the fragment statistics and fills the price caches, which
// the program does lazily on the first negotiation.
func setUp(sp spec, o options) (*runner, float64, error) {
	var rn *runner
	var times []float64
	start := time.Now()
	for len(times) < minSetups || time.Since(start) < minSetupTime {
		rn = nil
		runtime.GC()
		c0 := cpuTime()
		r := &runner{sp: sp, in: sp.build(o.seed, o.tiny), corrupt: -1}
		for i, t := range r.in.templates {
			if rec := r.runQuery(query{sql: t.warm, tmpl: i}, wallClock); rec.err != nil {
				return nil, 0, fmt.Errorf("warm-up %s: %w", t.name, rec.err)
			}
		}
		times = append(times, (cpuTime() - c0).Seconds())
		rn = r
		if o.tiny {
			break
		}
	}
	rn.answers.Store(0)
	return rn, median(times), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// distOf returns one timing of the samples, sorted.
func distOf(ss []sample, f func(sample) float32) dist {
	out := make(dist, len(ss))
	for i, s := range ss {
		out[i] = float64(f(s))
	}
	sort.Float64s(out)
	return out
}

func latencyOf(s sample) float32    { return s.latency }
func optimizeOf(s sample) float32   { return s.optimize }
func firstBatchOf(s sample) float32 { return s.firstBatch }

func writeDist(ws []wrec) dist {
	out := make(dist, len(ws))
	for i, w := range ws {
		out[i] = ms(w.latency)
	}
	sort.Float64s(out)
	return out
}

// cpuResolution is the resolution of the process CPU clock, in ms.
const cpuResolution = 0.001

// endToEnd fills the metrics a user of the federation sees. Timings and
// counts per query come from the serial probe, timed in CPU time; the peak
// heap comes from the closed loop, where queries overlap. The timings are
// geometric means: the probe asks a fixed mix, so they move smoothly with
// the cost of each query, where a median of chain-cold's many-moded costs
// jumps between modes, and a rare heavy query (telco-ingest's all-office
// aggregate) does not swamp them as it does an arithmetic mean.
func endToEnd(rep *report, probe, closed *loadResult, setupS float64) {
	n := float64(max(probe.completed(), 1))
	rep.set("setup_s", setupS, "s")
	rep.set("query_cpu_ms", geomean(distOf(probe.samples, latencyOf), cpuResolution), "ms")
	rep.set("optimize_cpu_ms", geomean(distOf(probe.samples, optimizeOf), cpuResolution), "ms")
	rep.set("first_batch_cpu_ms", geomean(distOf(probe.samples, firstBatchOf), cpuResolution), "ms")
	rep.set("msgs_per_query", float64(probe.msgs)/n, "count")
	rep.set("wire_kb_per_query", float64(probe.bytes)/1024/n, "kB")
	rep.set("plan_cost_ms", probe.planCost/n, "ms")
	rep.set("alloc_kb_per_query", float64(probe.alloc)/1024/n, "kB")
	rep.set("peak_heap_mb", float64(closed.peakHeap)/(1<<20), "MB")
}

// printProperties prints the generated inputs' properties a cache or
// statistics change must cite, the closed loop's wall-clock figures, and
// each timing's sample count with the highest percentile that has ten
// samples beyond it.
func printProperties(w io.Writer, rn *runner, lr *loadResult) {
	n := max(lr.completed(), 1)
	fmt.Fprintf(w, "# workload %s: %d queries, %d distinct SQL, repeated-SQL share %.4f, rows/query %.1f, writes %d (%.1f/s)\n",
		rn.sp.name, lr.attempts, len(lr.answers), float64(lr.completed()-len(lr.answers))/float64(n),
		float64(lr.rows)/float64(n), len(lr.writes), float64(len(lr.writes))/lr.elapsed.Seconds())
	byTmpl := map[int32][]sample{}
	for _, s := range lr.samples {
		byTmpl[s.tmpl] = append(byTmpl[s.tmpl], s)
	}
	for i, t := range rn.in.templates {
		ss := byTmpl[int32(i)]
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintf(w, "#   template %2d %-16s n=%5d rows/query %8.1f latency p50 %.4f ms\n", i, t.name, len(ss),
			float64(lr.tmplRows[i])/float64(len(ss)), distOf(ss, latencyOf).p50())
	}
	var busy float64
	for _, s := range lr.samples {
		busy += float64(s.latency)
	}
	hash := ms(lr.hash)
	fmt.Fprintf(w, "# process CPU %.4f ms/query, cores busy %.3f; harness fingerprinting %.4f ms/query, %.2f%% of client time\n",
		ms(lr.cpu)/float64(n), lr.cpu.Seconds()/lr.elapsed.Seconds(), hash/float64(n), 100*hash/max(hash+busy, 1e-9))
	fails := len(lr.failures)
	fmt.Fprintf(w, "# failed_frac %.6f (%d of %d queries failed; answers are checked below)\n",
		float64(fails)/float64(max(lr.attempts, 1)), fails, lr.attempts)
	// Printed, not in the JSON: on a host whose CPU is shared, wall-clock
	// figures move with the host's CPU steal far more than with the
	// program (README.md).
	lat99, _ := distOf(lr.samples, latencyOf).quantile(0.99)
	fmt.Fprintf(w, "# wall clock, closed loop: qps %.4f 1/s, latency_p50_ms %.4f ms, latency_p99_ms %.4f ms, optimize_p50_ms %.4f ms, first_batch_p50_ms %.4f ms\n",
		lr.qps(), distOf(lr.samples, latencyOf).p50(), lat99, distOf(lr.samples, optimizeOf).p50(), distOf(lr.samples, firstBatchOf).p50())
	if len(lr.writes) > 0 {
		wd := writeDist(lr.writes)
		w99, _ := wd.quantile(0.99)
		fmt.Fprintf(w, "# write_p50_ms %.4f ms, write_p99_ms %.4f ms (from each write's due time; %d writes)\n", wd.p50(), w99, len(wd))
	}
	printTails(w, "wall", lr.samples, writeDist(lr.writes))
}

// printProbe prints the serial probe's CPU-time figures.
func printProbe(w io.Writer, probe *loadResult) {
	fmt.Fprintf(w, "# probe: %d queries one at a time, timed in process CPU time; geometric means are in the JSON\n", probe.completed())
	printTails(w, "cpu", probe.samples, nil)
}

func printTails(w io.Writer, clk string, ss []sample, writes dist) {
	for _, t := range []struct {
		name string
		d    dist
	}{
		{"latency", distOf(ss, latencyOf)},
		{"optimize", distOf(ss, optimizeOf)},
		{"first_batch", distOf(ss, firstBatchOf)},
		{"write", writes},
	} {
		if len(t.d) == 0 {
			continue
		}
		q, v, ok := t.d.tailPercentile()
		if !ok {
			fmt.Fprintf(w, "# %s %s: n=%d p50=%.4f ms (too few samples for a tail)\n", clk, t.name, len(t.d), t.d.p50())
			continue
		}
		_, beyond := t.d.quantile(q)
		fmt.Fprintf(w, "# %s %s: n=%d p50=%.4f ms p%g=%.4f ms (%d beyond)\n", clk, t.name, len(t.d), t.d.p50(), q*100, v, beyond)
	}
}

func printMetrics(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
