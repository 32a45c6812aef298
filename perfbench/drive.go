package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/traffic"
)

// execFn runs one group of requests — one request on a sharded stack, up to
// batchSize on the batch executor — and fills out[i] for reqs[i].
type execFn func(reqs []traffic.Request, out []outcome)

// shardedExec answers each request on eng, one query at a time.
func shardedExec(eng *repro.Sharded, p *plan) execFn {
	return func(reqs []traffic.Request, out []outcome) {
		for i, r := range reqs {
			pr := p.specs[r.Spec]
			res, err := eng.Query(pr.spec.Agg, pr.spec.K, pr.so)
			out[i] = p.judge(pr, res, err)
		}
	}
}

// scanLog accumulates the batch executor's shared-scan accounting.
type scanLog struct {
	mu         sync.Mutex
	batches    int64
	wall       time.Duration
	querySort  int64 // Σ per-query sorted accesses
	scanSort   int64 // Σ BatchResult.Scan.Sorted
	windowPeak int64 // Σ BatchResult.Scan.MaxBuffered
}

// batchExec answers a group of requests with one repro.BatchQuery call.
func batchExec(p *plan, log *scanLog) execFn {
	return func(reqs []traffic.Request, out []outcome) {
		specs := make([]repro.QuerySpec, len(reqs))
		for i, r := range reqs {
			specs[i] = p.specs[r.Spec].spec
		}
		t := time.Now()
		br := repro.BatchQuery(p.db, specs, workers)
		wall := time.Since(t)
		var sorted int64
		for i, o := range br.Outcomes {
			out[i] = p.judge(p.specs[reqs[i].Spec], o.Result, o.Err)
			if o.Result != nil {
				sorted += o.Result.Stats.Sorted
			}
		}
		log.mu.Lock()
		log.batches++
		log.wall += wall
		log.querySort += sorted
		log.scanSort += br.Scan.Sorted
		log.windowPeak += int64(br.Scan.MaxBuffered)
		log.mu.Unlock()
	}
}

// tally sums the outcomes of one phase.
type tally struct {
	n, errs, wrong          int64
	sorted, random, maxBuf  int64
	bounds, faults, retries int64
	charged                 float64
}

func (t *tally) add(o outcome) {
	t.n++
	switch {
	case o.err != nil:
		t.errs++
		return
	case o.wrong:
		t.wrong++
	}
	s := o.res.Stats
	t.sorted += s.Sorted
	t.random += s.Random
	t.maxBuf += int64(s.MaxBuffered)
	t.bounds += s.BoundRecomputes
	t.faults += s.Faults
	t.retries += s.Retries
	t.charged += s.Charged()
}

func (t *tally) merge(o tally) {
	t.n += o.n
	t.errs += o.errs
	t.wrong += o.wrong
	t.sorted += o.sorted
	t.random += o.random
	t.maxBuf += o.maxBuf
	t.bounds += o.bounds
	t.faults += o.faults
	t.retries += o.retries
	t.charged += o.charged
}

// answered is the number of requests that returned an answer.
func (t *tally) answered() int64 { return t.n - t.errs }

// per divides a sum by the answered requests.
func (t *tally) per(sum float64) float64 { return sum / float64(max(t.answered(), 1)) }

// runtimeSample is the process-wide state a phase is measured against.
type runtimeSample struct {
	alloc                     uint64  // bytes allocated so far
	mutexWait, gcCPU, busyCPU float64 // seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		alloc:     ms.TotalAlloc,
		mutexWait: s[0].Value.Float64(),
		gcCPU:     s[1].Value.Float64(),
		busyCPU:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// closed is the result of a closed-loop phase.
type closed struct {
	tally
	rounds  []float64       // correct answers per second of each round
	latency []time.Duration // per request, as its caller waited for it
	before  runtimeSample
	after   runtimeSample
}

// qps is the closed-loop throughput: the median over rounds of correct
// answers per second, so a few seconds of interference from outside the
// program do not move it.
func (c *closed) qps() float64 { return median(c.rounds) }

// minRounds is the fewest rounds a closed-loop phase runs.
const minRounds = 3

// closedLoop replays the same window of requests in rounds, for at least
// duration d and minRounds rounds. In a round, `clients` callers each send
// their next group of the window's requests only after the previous group
// returned, until the window is done.
func closedLoop(window []traffic.Request, d time.Duration, clients, group int, exec execFn) closed {
	res := closed{before: readRuntime()}
	t0 := time.Now()
	for len(res.rounds) < minRounds || time.Since(t0) < d {
		var next atomic.Int64
		tallies := make([]tally, clients)
		lats := make([][]time.Duration, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := range tallies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]outcome, group)
				for {
					lo := int(next.Add(int64(group))) - group
					if lo >= len(window) {
						return
					}
					hi := min(lo+group, len(window))
					t := time.Now()
					exec(window[lo:hi], out[:hi-lo])
					lat := time.Since(t)
					for _, o := range out[:hi-lo] {
						tallies[c].add(o)
						if o.err != nil || o.wrong {
							lats[c] = append(lats[c], failedLatency)
						} else {
							lats[c] = append(lats[c], lat)
						}
					}
				}
			}()
		}
		wg.Wait()
		var round tally
		for c, t := range tallies {
			round.merge(t)
			res.latency = append(res.latency, lats[c]...)
		}
		res.rounds = append(res.rounds, float64(round.answered()-round.wrong)/time.Since(start).Seconds())
		res.tally.merge(round)
	}
	res.after = readRuntime()
	return res
}

// warm runs the first requests of the stream once, in groups, so caches
// fill and lazy set-up finishes before anything is timed.
func warm(reqs []traffic.Request, group int, exec execFn) tally {
	var t tally
	out := make([]outcome, group)
	for lo := 0; lo < len(reqs); lo += group {
		hi := min(lo+group, len(reqs))
		exec(reqs[lo:hi], out[:hi-lo])
		for _, o := range out[:hi-lo] {
			t.add(o)
		}
	}
	return t
}

// open is the result of an open-loop phase; durations are per request.
type open struct {
	tally
	latency []time.Duration // completion minus due time; failedLatency when failed
	queue   []time.Duration // service start minus due time
	late    []time.Duration // how late an idle server woke for a due request
	growth  float64         // backlog growth over the run, as a share of arrivals
	drained bool            // every request was served before the drain deadline
}

// failedLatency stands for the latency of a request that failed or was
// answered wrongly: it misses any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// openLoop serves the requests in arrival order, each due at its offset
// from the start whatever the servers are doing, with `servers` goroutines
// that each take the next request — plus, up to `group`, any others already
// due — and sleep until it is due when they are early. Latency is timed
// from the due time, so a stall also counts against the requests queued
// behind it. The servers themselves wait for due times, so no generator
// goroutine competes with the engine for the processors.
func openLoop(reqs []traffic.Request, horizon time.Duration, servers, group int, exec execFn) open {
	n := len(reqs)
	res := open{latency: make([]time.Duration, n), queue: make([]time.Duration, n)}
	starts := make([]time.Duration, n)
	late := make([]time.Duration, n)
	slept := make([]bool, n)
	outs := make([]outcome, n)
	ran := make([]bool, n)
	// Past this point the servers are hopelessly behind: they stop serving
	// and the run is reported invalid.
	deadline := horizon + horizon/4 + 10*time.Second
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := make([]int, 0, group)
			batch := make([]traffic.Request, 0, group)
			out := make([]outcome, group)
			for {
				mu.Lock()
				if next == n {
					mu.Unlock()
					return
				}
				first := next
				next++
				mu.Unlock()
				if d := time.Until(t0.Add(reqs[first].At)); d > 0 {
					time.Sleep(d)
					late[first] = time.Since(t0) - reqs[first].At
					slept[first] = true
				}
				idx = append(idx[:0], first)
				mu.Lock()
				now := time.Since(t0)
				for len(idx) < group && next < n && reqs[next].At <= now {
					idx = append(idx, next)
					next++
				}
				mu.Unlock()
				if now > deadline {
					continue
				}
				batch = batch[:0]
				for _, j := range idx {
					batch = append(batch, reqs[j])
				}
				exec(batch, out[:len(idx)])
				end := time.Since(t0)
				for k, j := range idx {
					starts[j] = now
					outs[j] = out[k]
					ran[j] = true
					res.queue[j] = now - reqs[j].At
					res.latency[j] = end - reqs[j].At
				}
			}
		}()
	}
	wg.Wait()

	res.drained = true
	for i := range reqs {
		if slept[i] {
			res.late = append(res.late, late[i])
		}
		if !ran[i] {
			res.drained = false
			res.latency[i] = failedLatency
			continue
		}
		res.tally.add(outs[i])
		if outs[i].err != nil || outs[i].wrong {
			res.latency[i] = failedLatency
		}
	}
	res.growth = backlogGrowth(reqs, starts, ran, horizon)
	return res
}

// backlogGrowth compares the mean queue length seen by arrivals in the last
// tenth of the run with that seen in the first tenth, as a share of all
// arrivals: near 0 when the servers keep up, and the excess of the arrival
// rate over the service rate when they do not.
func backlogGrowth(reqs []traffic.Request, starts []time.Duration, ran []bool, horizon time.Duration) float64 {
	sorted := make([]time.Duration, 0, len(starts))
	for i, s := range starts {
		if ran[i] {
			sorted = append(sorted, s)
		} else {
			sorted = append(sorted, failedLatency)
		}
	}
	slices.Sort(sorted)
	var first, last, nFirst, nLast float64
	for i, r := range reqs {
		started, _ := slices.BinarySearch(sorted, r.At+1)
		q := float64(i - started)
		switch {
		case r.At < horizon/10:
			first += q
			nFirst++
		case r.At >= horizon-horizon/10:
			last += q
			nLast++
		}
	}
	if nFirst == 0 || nLast == 0 {
		return 0
	}
	return (last/nLast - first/nFirst) / float64(len(reqs))
}

// quantile is the nearest-rank q-quantile of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
