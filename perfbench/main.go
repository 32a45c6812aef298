// Command perfbench is the repository's benchmark: it drives one traffic
// workload through the public entry points of the top-k engine, checks
// every answer against Naive, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics of a traced run — as one JSON object on
// the last line of standard output. NOTES.md describes the workloads and
// the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload interactive-ta --seed 42 --seconds 40 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/traffic"
)

const (
	closedShare = 0.8 // share of --seconds the closed loop runs
	warmCount   = 64  // requests run before anything is timed
	equivCount  = 16  // request prefix the traced stack is held equal on
	// A run whose open-loop backlog grows by more than this share of its
	// arrivals is overloaded at the workload's fixed rate: invalid. Sustained
	// overload by 12 % reaches it; a burst of slow requests in the last tenth
	// of a healthy run stays far below.
	maxGrowth = 0.1
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: interactive-ta, crawler-nra or batch-scan")
	seed := flag.Uint64("seed", 1, "seed of the arrival times and the fault schedule")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	w, err := lookup(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, d: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": r.record()}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers")
		os.Exit(1)
	}
}

// run is one benchmark run of one workload.
type run struct {
	w     *workload
	seed  uint64
	d     time.Duration
	trace bool

	db     *repro.Database
	eng    *repro.Sharded
	plan   *plan
	warm   []traffic.Request
	window []traffic.Request // the closed loop's requests, replayed per round
	open   []traffic.Request
	total  tally // every checked answer of the run

	samples map[string]int64 // how many requests each measured phase served
}

// record stamps the run with what its numbers depend on.
func (r *run) record() map[string]any {
	return map[string]any{
		"workload":   r.w.name,
		"seed":       r.seed,
		"seconds":    r.d.Seconds(),
		"trace":      r.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"n":          r.w.n,
		"m":          lists,
		"stack": map[string]any{
			"engine":     map[bool]string{true: "repro.BatchQuery", false: "repro.NewFaultyStack"}[r.w.batch],
			"shards":     shards,
			"cs":         costs.CS,
			"cr":         costs.CR,
			"latency":    "0",
			"fault_rate": r.w.faultRate,
			"retry":      fmt.Sprintf("%+v", repro.DefaultRetry),
			"cache":      map[string]int{"pages": cacheSpec.Pages, "cold_pages": cacheSpec.ColdPages},
		},
		"clients":   clients,
		"workers":   workers,
		"batch":     batchSize,
		"window":    r.w.window,
		"open_rate": r.w.rate,
		"samples":   r.samples,
	}
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// group is how many requests one call of the executor takes.
func (r *run) group() int {
	if r.w.batch {
		return batchSize
	}
	return 1
}

func (r *run) execute() (*report, error) {
	setups := make([]float64, 0, setupReps)
	builds := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		r.db, r.eng = nil, nil
		runtime.GC()
		t := time.Now()
		db, err := r.w.database()
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t).Seconds())
		eng, err := r.w.engine(db, r.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		r.db, r.eng = db, eng
	}

	openShare := 1 - closedShare
	horizon := time.Duration(openShare * float64(r.d))
	closed, err := r.w.stream(r.seed, 0, warmCount+r.w.window)
	if err != nil {
		return nil, err
	}
	if r.open, err = r.w.stream(r.seed, horizon, 0); err != nil {
		return nil, err
	}
	r.warm, r.window = closed[:warmCount], closed[warmCount:]
	if r.plan, err = newPlan(r.db, closed, r.open); err != nil {
		return nil, err
	}

	exec := r.executor()
	r.total = warm(r.warm, r.group(), exec)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	if r.trace {
		return r.traced(builds, horizon, exec)
	}
	cl := closedLoop(r.window, time.Duration(closedShare*float64(r.d)), clients, r.group(), exec)
	op, err := r.openLoop(horizon, exec)
	if err != nil {
		return nil, err
	}
	r.samples = map[string]int64{"closed": cl.n, "closed_rounds": int64(len(cl.rounds)), "open": op.n}
	all := r.total
	all.merge(cl.tally)
	all.merge(op.tally)
	m := map[string]metric{
		"throughput_qps":     {cl.qps(), "1/s"},
		"latency_p50_ms":     {quantile(cl.latency, 0.50), "ms"},
		"latency_p95_ms":     {quantile(cl.latency, 0.95), "ms"},
		"charged_per_query":  {all.per(all.charged), "cost"},
		"success_rate":       {float64(all.n-all.errs-all.wrong) / float64(all.n), "ratio"},
		"setup_s":            {median(setups), "s"},
		"alloc_kb_per_query": {float64(cl.after.alloc-cl.before.alloc) / 1024 / float64(cl.n), "KiB"},
		"heap_mb":            {heapMB, "MiB"},
	}
	return r.finish(all, m), nil
}

func (r *run) executor() execFn {
	if r.w.batch {
		return batchExec(r.plan, &scanLog{})
	}
	return shardedExec(r.eng, r.plan)
}

// openLoop runs the open-loop phase and refuses a run whose backlog grew:
// at the workload's fixed rate that means the program could not keep up,
// and its latencies would measure the queue, not the program.
func (r *run) openLoop(horizon time.Duration, exec execFn) (open, error) {
	op := openLoop(r.open, horizon, clients, r.group(), exec)
	if !op.drained || op.growth > maxGrowth {
		return op, fmt.Errorf("invalid run: open-loop backlog grew by %.3f of %d arrivals at %g/s (drained: %v)",
			op.growth, len(r.open), r.w.rate, op.drained)
	}
	return op, nil
}

func (r *run) finish(all tally, m map[string]metric) *report {
	return &report{
		Correct:   all.wrong == 0,
		Attempted: all.n,
		Failed:    all.errs + all.wrong,
		Metrics:   m,
	}
}

// shardLog accumulates the coordinator-level view of traced queries.
type shardLog struct {
	mu        sync.Mutex
	queries   int64
	wall      time.Duration // Σ query wall time
	worker    time.Duration // Σ over shards of ShardStat.Elapsed
	coord     time.Duration // Σ query wall time minus the slowest shard
	imbalance float64       // Σ slowest / mean shard time
	resumes   int64
}

func (l *shardLog) add(wall time.Duration, per []repro.ShardStat) {
	var sum, slowest time.Duration
	var resumes int64
	for _, s := range per {
		sum += s.Elapsed
		slowest = max(slowest, s.Elapsed)
		resumes += int64(s.Resumes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queries++
	l.wall += wall
	l.worker += sum
	l.coord += wall - slowest
	if sum > 0 {
		l.imbalance += float64(slowest) * float64(len(per)) / float64(sum)
	}
	l.resumes += resumes
}

// tracedExec is shardedExec with the coordinator's per-shard view logged.
func tracedExec(eng *repro.Sharded, p *plan, log *shardLog) execFn {
	return func(reqs []traffic.Request, out []outcome) {
		for i, r := range reqs {
			pr := p.specs[r.Spec]
			so := pr.so
			var per []repro.ShardStat
			so.OnShardStats = func(s []repro.ShardStat) { per = s }
			t := time.Now()
			res, err := eng.Query(pr.spec.Agg, pr.spec.K, so)
			wall := time.Since(t)
			out[i] = p.judge(pr, res, err)
			if err == nil {
				log.add(wall, per)
			}
		}
	}
}

// traced is the --trace 1 run: the untraced closed loop, the same loop on
// the traced stack, then the open loop for the driver's validity figures.
func (r *run) traced(builds []float64, horizon time.Duration, exec execFn) (*report, error) {
	phase := time.Duration(closedShare / 2 * float64(r.d))
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	all := r.total

	t := time.Now()
	parts, err := r.db.Partition(shards)
	if err != nil {
		return nil, err
	}
	set("model.partition_s", time.Since(t).Seconds(), "s")
	set("model.build_s", median(builds), "s")

	base := closedLoop(r.window, phase, clients, r.group(), exec)
	all.merge(base.tally)
	used := base.after.busyCPU - base.before.busyCPU
	set("runtime.mutex_wait_ms_per_query", (base.after.mutexWait-base.before.mutexWait)*1e3/float64(base.n), "ms")
	set("runtime.gc_cpu_share", (base.after.gcCPU-base.before.gcCPU)/max(used, 1e-9), "ratio")

	// The batch workload has no stack to trace: d stays zero, and so do the
	// metrics of the layers it bypasses.
	var tr closed
	var d snapshot
	var sl shardLog
	var scans scanLog
	if r.w.batch {
		tr = closedLoop(r.window, phase, clients, r.group(), batchExec(r.plan, &scans))
	} else {
		fault := r.w.faultSpec(r.seed)
		if err := checkEquivalent(r.db, parts, fault, r.plan, r.warm[:equivCount]); err != nil {
			return nil, fmt.Errorf("traced stack differs from NewFaultyStack: %w", err)
		}
		ts, err := newTracedStack(parts, fault)
		if err != nil {
			return nil, err
		}
		all.merge(warm(r.warm, r.group(), shardedExec(ts.eng, r.plan)))
		before := ts.snapshot()
		tr = closedLoop(r.window, phase, clients, r.group(), tracedExec(ts.eng, r.plan, &sl))
		d = ts.snapshot().minus(before)
		if err := crossCheck(d, tr.tally); err != nil {
			return nil, fmt.Errorf("traced counts disagree with the engine's accounting: %w", err)
		}
	}
	all.merge(tr.tally)
	ms := func(ns int64) float64 { return tr.per(float64(ns)) / 1e6 }
	cacheL, faultL, remoteL, modelL := d.layers[layerCache], d.layers[layerFault], d.layers[layerRemote], d.layers[layerModel]

	coreNs := int64(sl.worker) - cacheL.ns
	set("core.self_ms", ms(coreNs), "ms")
	set("core.ns_per_access", ratio(float64(coreNs), float64(tr.sorted+tr.random)), "ns")
	set("core.bound_recomputes_per_query", tr.per(float64(tr.bounds)), "count")
	set("core.sorted_per_query", tr.per(float64(tr.sorted)), "count")
	set("core.random_per_query", tr.per(float64(tr.random)), "count")
	set("core.max_buffered", tr.per(float64(tr.maxBuf)), "count")

	cs := d.cache
	sortedReads := float64(cs.Hits + cs.ColdHits + cs.Misses)
	set("cache.self_ms", ms(cacheL.ns-faultL.ns), "ms")
	set("cache.hit_rate", ratio(float64(cs.Hits+cs.ColdHits), sortedReads), "ratio")
	set("cache.cold_hit_rate", ratio(float64(cs.ColdHits), sortedReads), "ratio")
	set("cache.probe_hit_rate", ratio(float64(cs.ProbeHits), float64(cs.ProbeHits+cs.ProbeMisses)), "ratio")
	set("cache.evictions_per_query", tr.per(float64(cs.Evictions)), "count")
	set("cache.admission_rejects_per_query", tr.per(float64(cs.AdmissionRejects)), "count")
	set("cache.saved_per_query", tr.per(cs.ChargedSaved), "cost")

	set("fault.self_ms", ms(faultL.ns-remoteL.ns), "ms")
	set("fault.faults_per_query", tr.per(float64(tr.faults)), "count")
	set("fault.retries_per_query", tr.per(float64(tr.retries)), "count")
	set("fault.attempts_per_success", ratio(float64(faultL.calls), float64(faultL.calls-faultL.errs)), "ratio")

	set("remote.self_ms", ms(remoteL.ns-modelL.ns), "ms")
	set("remote.calls_per_query", tr.per(float64(remoteL.calls)), "count")
	set("remote.entries_per_call", ratio(float64(remoteL.sorted+remoteL.random), float64(remoteL.calls)), "count")
	set("remote.charged_per_query", tr.per(float64(remoteL.sorted)*costs.CS+float64(remoteL.random)*costs.CR), "cost")
	set("model.self_ms", ms(modelL.ns), "ms")

	set("shard.query_ms", ms(int64(sl.wall)), "ms")
	set("shard.coord_ms", ms(int64(sl.coord)), "ms")
	set("shard.imbalance", ratio(sl.imbalance, float64(sl.queries)), "ratio")
	set("shard.resumes_per_query", tr.per(float64(sl.resumes)), "count")

	set("scan.batch_ms", ratio(float64(scans.wall)/1e6, float64(scans.batches)), "ms")
	set("scan.sharing", ratio(float64(scans.querySort), float64(scans.scanSort)), "ratio")
	set("scan.window_peak", ratio(float64(scans.windowPeak), float64(scans.batches)), "count")

	op, err := r.openLoop(horizon, exec)
	if err != nil {
		return nil, err
	}
	all.merge(op.tally)
	r.samples = map[string]int64{"untraced": base.n, "traced": tr.n, "open": op.n}
	set("driver.open_p50_ms", quantile(op.latency, 0.50), "ms")
	set("driver.open_p99_ms", quantile(op.latency, 0.99), "ms")
	set("driver.queue_p99_ms", quantile(op.queue, 0.99), "ms")
	set("driver.late_p99_ms", quantile(op.late, 0.99), "ms")
	set("driver.backlog_growth", op.growth, "ratio")
	set("driver.trace_overhead", ratio(tr.qps(), base.qps()), "ratio")
	return r.finish(all, m), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
