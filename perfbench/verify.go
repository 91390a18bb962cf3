package main

import (
	"fmt"
	"strings"
	"sync"
)

// verdict is the correctness gate's outcome.
type verdict struct {
	checked    int // answers compared with the oracle
	mismatches int
	failed     int // failed queries and writes, mismatches included
	firstErr   string
}

func (v *verdict) fail(n int, msg string) {
	v.failed += n
	if v.firstErr == "" {
		v.firstErr = msg
	}
}

func ordered(sql string) bool { return strings.Contains(strings.ToUpper(sql), "ORDER BY") }

// truths evaluates each SQL on the oracle, on two goroutines.
func (rn *runner) truths(sqls []string) (map[string]fingerprint, error) {
	out := make(map[string]fingerprint, len(sqls))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sqls); i += workers {
				resp, err := rn.in.fed.GroundTruth(sqls[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %q: %w", sqls[i], err)
				}
				out[sqls[i]] = fingerprintOf(resp.Rows)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, firstErr
}

// check compares every logged answer with the oracle, outside the timed
// region, and counts failed queries. The oracle has received every write
// applied so far. An answer that writes can change is accepted if it
// equals the oracle's answer as of k writes for some k from the writes
// applied when the query began to one more than those applied when it
// ended (that write may have been in flight). Writes only append, and a
// fingerprint is a sum over rows, so the answer as of k writes is the
// current one minus the template's delta of every later write.
func (rn *runner) check(v *verdict, log *queryLog) error {
	for _, f := range log.failures {
		v.fail(1, fmt.Sprintf("query failed: %v: %s", f.err, f.sql))
	}
	sqls := make([]string, 0, len(log.answers))
	for sql := range log.answers {
		sqls = append(sqls, sql)
	}
	truth, err := rn.truths(sqls)
	if err != nil {
		return err
	}
	applied := rn.writesDone.Load()
	for _, sql := range sqls {
		as := log.answers[sql]
		delta := rn.in.templates[as.tmpl].delta
		if delta != nil && ordered(sql) {
			return fmt.Errorf("template %d orders its answer but has a delta: %s", as.tmpl, sql)
		}
		// asOf[k] is the answer as of k writes.
		asOf := []fingerprint{truth[sql]}
		if delta != nil {
			asOf = make([]fingerprint, applied+1)
			asOf[applied] = truth[sql]
			for k := applied - 1; k >= 0; k-- {
				asOf[k] = asOf[k+1].minus(fingerprintOf(delta(rn.in.nextWrite(int(k)))))
			}
		}
		for a, n := range as.fps {
			v.checked += n
			ok := false
			for k := a.from; k <= min(a.to+1, int64(len(asOf)-1)) && !ok; k++ {
				ok = a.fp.matches(asOf[k], ordered(sql))
			}
			if !ok {
				v.mismatches += n
				v.fail(n, fmt.Sprintf("answer differs from the oracle (%d rows, oracle %d after %d to %d writes): %s",
					a.fp.rows, asOf[min(a.to, int64(len(asOf)-1))].rows, a.from, a.to, sql))
			}
		}
	}
	return nil
}

// recheck runs every template once more, after writes have stopped, and
// compares each answer with the oracle, which has received every write.
// It returns how many queries it ran.
func (rn *runner) recheck(v *verdict) (int, error) {
	log := newQueryLog()
	for i, t := range rn.in.templates {
		r := rn.runQuery(query{sql: t.warm, tmpl: i}, wallClock)
		log.add(r, sampleOf(r, false))
	}
	return log.attempts, rn.check(v, log)
}

// quietOptimize runs every template twice more once writes have stopped
// and returns the median Optimize time of the second runs: the baseline
// for core.optimize_after_write_ms.
func (rn *runner) quietOptimize() float64 {
	var ms []float64
	for i, t := range rn.in.templates {
		rn.runQuery(query{sql: t.warm, tmpl: i}, wallClock)
		ms = append(ms, float64(rn.runQuery(query{sql: t.warm, tmpl: i}, wallClock).optimize.Nanoseconds())/1e6)
	}
	return median(ms)
}
