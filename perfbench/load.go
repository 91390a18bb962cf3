package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
)

// clock is one of the two clocks queries are timed with: wallClock, or
// cpuTime, the process's CPU time.
type clock func() time.Duration

var epoch = time.Now()

func wallClock() time.Duration { return time.Since(epoch) }

// qresult is one query's outcome as runQuery measured it.
type qresult struct {
	q   query
	err error
	fp  fingerprint
	// optimize is core.Optimize; firstBatch runs from Optimize returning to
	// the first cursor batch (open included); latency is the whole query
	// with the harness's own fingerprinting excluded.
	optimize, firstBatch, latency time.Duration
	drain                         time.Duration // cursor pulls after the first batch
	hash                          time.Duration // the harness's fingerprinting
	batches                       int
	planCost                      float64 // Candidate.ResponseTime of the chosen plan
	stats                         core.Stats
	// from and to are the writes applied when the query began and ended,
	// kept for templates whose answer writes change (see check).
	from, to int64
}

// sample is one successful query of a load phase, kept compact so the
// harness's own memory stays small next to the program's.
type sample struct {
	latency, optimize, firstBatch, drain float32 // ms
	tmpl                                 int32
	afterWrite                           bool // a write landed since this client's previous query began
}

func msf(d time.Duration) float32 { return float32(d.Nanoseconds()) / 1e6 }

func sampleOf(r qresult, afterWrite bool) sample {
	return sample{latency: msf(r.latency), optimize: msf(r.optimize), firstBatch: msf(r.firstBatch),
		drain: msf(r.drain), tmpl: int32(r.q.tmpl), afterWrite: afterWrite}
}

// answerKey is one answer with the writes applied while it was computed.
type answerKey struct {
	fp       fingerprint
	from, to int64
}

// answerSet is every answer one SQL text had.
type answerSet struct {
	tmpl int
	fps  map[answerKey]int
}

// failure is one query that returned an error.
type failure struct {
	sql string
	err error
}

// queryLog accumulates what a client's queries measured. Answers are kept
// as fingerprints per distinct SQL, not per query.
type queryLog struct {
	samples  []sample
	failures []failure
	answers  map[string]*answerSet
	attempts int
	// sums over successful queries
	planCost                        float64
	iterations, rfbs, asked, offers int64
	batches, rows                   int64
	tmplRows                        map[int]int64
	hash                            time.Duration
}

func newQueryLog() *queryLog {
	return &queryLog{answers: map[string]*answerSet{}, tmplRows: map[int]int64{}}
}

func (l *queryLog) add(r qresult, s sample) {
	l.attempts++
	if r.err != nil {
		l.failures = append(l.failures, failure{r.q.sql, r.err})
		return
	}
	as := l.answers[r.q.sql]
	if as == nil {
		as = &answerSet{tmpl: r.q.tmpl, fps: map[answerKey]int{}}
		l.answers[r.q.sql] = as
	}
	as.fps[answerKey{r.fp, r.from, r.to}]++
	l.samples = append(l.samples, s)
	l.planCost += r.planCost
	l.iterations += int64(r.stats.Iterations)
	l.rfbs += int64(r.stats.RFBsSent)
	l.asked += int64(r.stats.QueriesAsked)
	l.offers += int64(r.stats.OffersReceived)
	l.batches += int64(r.batches)
	l.rows += r.fp.rows
	l.tmplRows[r.q.tmpl] += r.fp.rows
	l.hash += r.hash
}

// merge folds o into l.
func (l *queryLog) merge(o *queryLog) {
	l.samples = append(l.samples, o.samples...)
	l.failures = append(l.failures, o.failures...)
	l.attempts += o.attempts
	for sql, as := range o.answers {
		mine := l.answers[sql]
		if mine == nil {
			l.answers[sql] = as
			continue
		}
		for fp, n := range as.fps {
			mine.fps[fp] += n
		}
	}
	l.planCost += o.planCost
	l.iterations += o.iterations
	l.rfbs += o.rfbs
	l.asked += o.asked
	l.offers += o.offers
	l.batches += o.batches
	l.rows += o.rows
	for t, n := range o.tmplRows {
		l.tmplRows[t] += n
	}
	l.hash += o.hash
}

// wrec is one write of the open-loop writer.
type wrec struct {
	latency time.Duration // from the write's due time to its completion
	lag     time.Duration // how late the write started
	insert  time.Duration // the storage inserts alone
	err     error
}

// loadResult is what one load phase measured.
type loadResult struct {
	*queryLog
	writes   []wrec
	elapsed  time.Duration
	msgs     int64
	bytes    int64
	alloc    uint64        // bytes allocated during the phase
	cpu      time.Duration // process CPU time (user + system) during the phase
	peakHeap uint64        // highest live-heap sample
}

func (l *loadResult) completed() int { return len(l.samples) }

// qps is the phase's queries completed per second.
func (l *loadResult) qps() float64 { return float64(l.completed()) / l.elapsed.Seconds() }

// runner drives one built workload.
type runner struct {
	sp spec
	in *instance
	// seq is the next index into the workload's query sequence, shared by
	// every client and phase so no generated query is issued twice.
	seq atomic.Int64
	// wseq is the next write index, shared by the load phases.
	wseq atomic.Int64
	// writesDone counts applied writes, for samples' afterWrite mark and
	// answers' write window.
	writesDone atomic.Int64
	// corrupt, when non-negative, is the index of the load answer whose
	// fingerprint the harness corrupts; the self-test uses it to prove the
	// correctness gate fails.
	corrupt int64
	answers atomic.Int64
	// captureNegs makes runQuery keep negotiations for replay; it is set
	// only between load phases.
	captureNegs bool
	negMu       sync.Mutex
	negs        []negotiation
}

// runQuery optimizes and drains one query the way Federation.Query does,
// with the cursor exposed so the first batch can be timed on clk.
func (rn *runner) runQuery(q query, clk clock) qresult {
	rec := qresult{q: q}
	windowed := rn.in.templates[q.tmpl].delta != nil
	if windowed {
		rec.from = rn.writesDone.Load()
	}
	fed := rn.in.fed
	comm := fed.Comm()
	t0 := clk()
	res, err := core.Optimize(fed.BuyerConfig(), comm, q.sql)
	t1 := clk()
	rec.optimize = t1 - t0
	rec.latency = rec.optimize
	if err != nil {
		rec.err = err
		return rec
	}
	rec.planCost = res.Candidate.ResponseTime
	rec.stats = res.Stats
	if rn.captureNegs {
		rn.captureNeg(res.SQL, res.Pool)
	}
	cur, _, err := core.ExecuteResultStream(comm, &exec.Executor{Store: fed.Nodes[fed.Buyer].Store()}, res, nil)
	if err != nil {
		rec.latency += clk() - t1
		rec.err = err
		return rec
	}
	var fp fingerprint
	busy := time.Duration(0)
	lap := t1
	for {
		b, err := cur.Next()
		now := clk()
		d := now - lap
		busy += d
		if rec.batches == 0 {
			rec.firstBatch = busy
		} else {
			rec.drain += d
		}
		if err != nil {
			rec.err = err
			break
		}
		if len(b) == 0 {
			break
		}
		rec.batches++
		fp.addBatch(b)
		lap = clk()
		rec.hash += lap - now
	}
	lap = clk()
	if err := cur.Close(); err != nil && rec.err == nil {
		rec.err = err
	}
	busy += clk() - lap
	rec.latency += busy
	if windowed {
		rec.to = rn.writesDone.Load()
	}
	if rn.answers.Add(1)-1 == rn.corrupt {
		fp.rows++ // harness-side corruption for the gate self-test
	}
	rec.fp = fp
	return rec
}

// measure runs a load phase and returns what the federation and the
// process did during it, with the phase's query log and writes.
func (rn *runner) measure(phase func() (*queryLog, []wrec)) *loadResult {
	fed := rn.in.fed
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	msgs0, bytes0 := fed.Net.Stats()
	cpu0 := cpuTime()
	stopSampler := make(chan struct{})
	samplerDone := make(chan uint64)
	go func() { samplerDone <- sampleHeap(stopSampler) }()
	start := time.Now()

	log, writes := phase()

	out := &loadResult{queryLog: log, elapsed: time.Since(start), writes: writes}
	close(stopSampler)
	out.peakHeap = <-samplerDone
	msgs1, bytes1 := fed.Net.Stats()
	out.msgs, out.bytes = msgs1-msgs0, bytes1-bytes0
	out.cpu = cpuTime() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	return out
}

// probe runs the workload's query sequence one query at a time, in whole
// periods of the mix, until d has passed, and times each query on the
// process's CPU clock: with one query running, the process's CPU time is
// that query's cost to the whole federation (buyer, sellers and the
// garbage collector), and it leaves out time the host gave to other
// tenants, which a wall clock on a shared host does not. A workload that
// writes applies one write before each query, untimed, as its writer does
// before nearly every query of the closed loop.
//
// The garbage collector runs between queries, untimed, as often as the
// default GOGC=100 would run it: a collection marks the whole heap (83 MB
// on telco-ingest), and its CPU was charged at random to whichever query
// it overlapped. The collector's cost shows in alloc_kb_per_query instead.
func (rn *runner) probe(d time.Duration) *loadResult {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	collectIfDue := func() {
		metrics.Read(heap)
		if heap[1].Value.Uint64() > 2*heap[0].Value.Uint64() {
			runtime.GC()
		}
	}
	return rn.measure(func() (*queryLog, []wrec) {
		log := newQueryLog()
		var writes []wrec
		deadline := time.Now().Add(d)
		for i := 0; i%rn.in.period != 0 || time.Now().Before(deadline); i++ {
			if rn.sp.writeRate > 0 {
				writes = append(writes, rn.write(time.Now()))
			}
			collectIfDue()
			r := rn.runQuery(rn.in.next(int(rn.seq.Add(1)-1)), cpuTime)
			log.add(r, sampleOf(r, rn.sp.writeRate > 0))
		}
		return log, writes
	})
}

// load runs the workload's closed-loop clients (and writer, if any) for d
// on the wall clock and returns what they measured.
func (rn *runner) load(d time.Duration) *loadResult {
	return rn.measure(func() (*queryLog, []wrec) {
		start := time.Now()
		deadline := start.Add(d)
		logs := make([]*queryLog, rn.sp.clients)
		var wg sync.WaitGroup
		for c := range logs {
			logs[c] = newQueryLog()
			wg.Add(1)
			go func(log *queryLog) {
				defer wg.Done()
				seen := rn.writesDone.Load()
				for time.Now().Before(deadline) {
					q := rn.in.next(int(rn.seq.Add(1) - 1))
					w := rn.writesDone.Load()
					r := rn.runQuery(q, wallClock)
					log.add(r, sampleOf(r, w != seen))
					seen = w
				}
			}(logs[c])
		}
		var writes []wrec
		if rn.sp.writeRate > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				writes = rn.writeLoop(rn.sp.writeRate, start, deadline)
			}()
		}
		wg.Wait()
		for _, l := range logs[1:] {
			logs[0].merge(l)
		}
		return logs[0], writes
	})
}

// writeLoop issues writes open-loop at rate per second from start, each
// timed from its due time, until the next due time passes deadline.
func (rn *runner) writeLoop(rate float64, start, deadline time.Time) []wrec {
	var out []wrec
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.After(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out = append(out, rn.write(due))
	}
	return out
}

// write applies the next write of the sequence to the federation and
// mirrors it into the oracle.
func (rn *runner) write(due time.Time) wrec {
	w := rn.in.nextWrite(int(rn.wseq.Add(1) - 1))
	begin := time.Now()
	err := rn.in.apply(w)
	end := time.Now()
	if err == nil {
		err = rn.in.mirror(w)
	}
	rn.writesDone.Add(1)
	return wrec{latency: end.Sub(due), lag: begin.Sub(due), insert: end.Sub(begin), err: err}
}

// sampleHeap polls the live heap, as marked by the latest GC cycle, until
// stop closes and returns the peak. The live heap, unlike the heap in use,
// does not depend on where between two GC cycles a sample falls.
func sampleHeap(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// cpuTime returns the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
