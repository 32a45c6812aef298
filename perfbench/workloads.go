package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/agg"
	"repro/internal/traffic"
	datagen "repro/internal/workload"
)

// The stack every sharded workload runs on. Backends declare cS = 1 and
// cR = 8 with zero latency: Remote latency is a real time.Sleep, and
// microsecond sleeps on a small shared host measure the timer rather than
// the program, so the price of an access is carried by the charged cost.
const (
	lists  = 3 // m: independent-uniform grades per object
	shards = 2 // P
	// Closed-loop clients and open-loop servers. Each call already runs on
	// both of the host's cores (P = 2 shard workers, or two batch workers);
	// a second client made a light request's latency depend on whether the
	// other client was running a heavy one.
	clients   = 1
	workers   = 2 // batch workers, and the parallel Naive answers at set-up
	batchSize = 8 // the batch executor admits up to this many due requests
	setupReps = 5 // set-ups per run; setup_s is their median
)

var (
	costs     = repro.CostModel{CS: 1, CR: 8}
	backend   = &repro.BackendSpec{SortedCost: costs.CS, RandomCost: costs.CR}
	cacheSpec = &repro.CacheSpec{Pages: 64, ColdPages: 256}
)

// Zipf-repeat cohorts draw from a large pool with a mild skew: every spec
// still repeats (the grid has nine cells), and each cell keeps a stable
// share in any few hundred consecutive requests, such as a closed-loop
// window.
const (
	poolSize = 4096
	zipfSkew = 1.5
)

// cohort is one share of a workload's arrivals.
type cohort struct {
	name  string
	share float64 // fraction of the workload's open-loop rate
	pop   traffic.Population
}

// A workload is one traffic mix: its database, the stack under the engine
// and the cohorts its request stream is drawn from. NOTES.md gives the
// reason for each.
type workload struct {
	name      string
	n         int
	window    int     // requests per closed-loop round, a few seconds of work
	rate      float64 // open-loop Poisson arrivals per second, fixed
	faultRate float64 // transient failures injected per backend access
	batch     bool    // drive repro.BatchQuery instead of a sharded stack
	cohorts   []cohort
}

func zipfRepeat(algo string) traffic.Population {
	return traffic.Population{
		Kind:     traffic.PopZipfRepeat,
		PoolSize: poolSize,
		ZipfSkew: zipfSkew,
		Ks:       []int{5, 10, 20},
		Aggs:     []string{"avg", "min", "sum"},
		Algos:    []string{algo},
	}
}

var workloads = []*workload{
	{
		name:   "interactive-ta",
		n:      50_000,
		window: 128,
		rate:   34,
		cohorts: []cohort{
			{name: "ta", share: 0.75, pop: zipfRepeat(traffic.AlgoTA)},
			{name: "cost-aware", share: 0.25, pop: zipfRepeat(traffic.AlgoCostAwareTA)},
		},
	},
	{
		name:      "crawler-nra",
		n:         100_000,
		window:    72,
		rate:      9,
		faultRate: 0.001,
		cohorts: []cohort{{name: "crawler", share: 1, pop: traffic.Population{
			Kind:  traffic.PopCrawler,
			Ks:    []int{10, 25, 50, 75, 100, 150, 200},
			Aggs:  agg.Names(),
			Algos: []string{traffic.AlgoNRA},
		}}},
	},
	{
		name:    "batch-scan",
		n:       50_000,
		window:  384,
		rate:    60,
		batch:   true,
		cohorts: []cohort{{name: "ta", share: 1, pop: zipfRepeat(traffic.AlgoTA)}},
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputSeed fixes each workload's database and query sequence; a run's
// seed draws its arrival times and its fault schedule. Per-query work
// spans three orders of magnitude across the grids and, at small k, varies
// by tens of percent from one random database to the next, so with either
// redrawn per seed the metrics moved by more than a regression bound from
// seed to seed, although every run measured the same program.
const inputSeed = 1

// stream generates the workload's request stream with internal/traffic: up
// to max requests, or every arrival before horizon when horizon is
// positive. The specs come from the stream drawn at inputSeed and the
// arrival times from the one drawn at seed; both are Poisson at the
// workload's rate, so the result is too.
func (w *workload) stream(seed uint64, horizon time.Duration, max int) ([]traffic.Request, error) {
	arrivals, err := traffic.Generate(w.config(seed, horizon, max))
	if err != nil || len(arrivals) == 0 {
		return arrivals, err
	}
	specs, err := traffic.Generate(w.config(inputSeed, 0, len(arrivals)))
	if err != nil {
		return nil, err
	}
	for i := range arrivals {
		arrivals[i].Cohort = specs[i].Cohort
		arrivals[i].Spec = specs[i].Spec
	}
	return arrivals, nil
}

func (w *workload) config(seed uint64, horizon time.Duration, max int) traffic.Config {
	cfg := traffic.Config{Seed: seed, Horizon: horizon, MaxRequests: max}
	for _, c := range w.cohorts {
		cfg.Cohorts = append(cfg.Cohorts, traffic.Cohort{
			Name:       c.name,
			Arrival:    traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, Rate: c.share * w.rate},
			Population: c.pop,
		})
	}
	return cfg
}

func (w *workload) database() (*repro.Database, error) {
	return datagen.IndependentUniform(datagen.Spec{N: w.n, M: lists, Seed: inputSeed})
}

func (w *workload) faultSpec(seed uint64) *repro.FaultSpec {
	return &repro.FaultSpec{Rate: w.faultRate, Seed: seed}
}

// engine builds the persistent sharded stack through the public entry
// point; batch workloads have none.
func (w *workload) engine(db *repro.Database, seed uint64) (*repro.Sharded, error) {
	if w.batch {
		return nil, nil
	}
	return repro.NewFaultyStack(db, shards, backend, w.faultSpec(seed), cacheSpec)
}
