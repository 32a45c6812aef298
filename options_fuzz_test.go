package repro_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/core"
)

// fuzzOptionsDB is the fixed 12-object, m = 3 database FuzzOptions runs on;
// grades come from {0, ¼, ½, ¾, 1}, so overall grades tie often.
func fuzzOptionsDB(tb testing.TB) *repro.Database {
	tb.Helper()
	b := repro.NewBuilder(3)
	for i := 0; i < 12; i++ {
		g := make([]repro.Grade, 3)
		for j := range g {
			g[j] = repro.Grade(float64((i*(j+2)+j)%5) / 4)
		}
		b.MustAdd(repro.ObjectID(i+1), g...)
	}
	return b.MustBuild()
}

// Bits of FuzzOptions' flags argument.
const (
	fuzzNoRandom = 1 << iota
	fuzzCostAware
	fuzzMemoize
	fuzzProgress
	fuzzHedge
	fuzzCache
	fuzzCosts
)

// FuzzOptions turns its input into arbitrary Options and runs them on a
// fixed database with tied grades. Each assertion is exact — one failing
// input is a bug: no input panics; every rejection of a fault-free query
// wraps ErrBadQuery; and every accepted exact run returns objects whose
// true-grade multiset equals Naive's, NRA's grade intervals included.
func FuzzOptions(f *testing.F) {
	db := fuzzOptionsDB(f)
	f.Add(uint8(0), int8(0), uint16(0), 0.0, 0.0, uint8(0), uint8(0), uint8(0), int8(0), uint8(0), uint8(0), 1.0, 8.0, uint8(3), uint8(0))
	f.Add(uint8(3), int8(2), uint16(fuzzNoRandom), 0.0, 0.0, uint8(0), uint8(3), uint8(2), int8(4), uint8(0), uint8(0), 1.0, 8.0, uint8(5), uint8(1))
	f.Add(uint8(1), int8(2), uint16(fuzzCostAware|fuzzCosts|fuzzCache), 1.0, 2.0, uint8(0), uint8(0), uint8(0), int8(0), uint8(0x11), uint8(1), 1.0, 8.0, uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, algo uint8, shards int8, flags uint16, theta, minTheta float64,
		sorted, publish, schedule uint8, publishEvery int8, fault, backend uint8, cs, cr float64, k, aggSel uint8) {
		aggs := []repro.AggFunc{repro.Max(3), repro.Min(3), repro.Avg(3), repro.Sum(3)}
		tf := aggs[int(aggSel)%len(aggs)]
		opts := repro.Options{
			Algorithm:      []repro.AlgorithmName{"", repro.AlgoTA, repro.AlgoFA, repro.AlgoNRA, repro.AlgoCA, repro.AlgoNaive, repro.AlgoMaxTopK, "bogus"}[algo%8],
			Shards:         int(shards),
			NoRandomAccess: flags&fuzzNoRandom != 0,
			CostAwareTA:    flags&fuzzCostAware != 0,
			Memoize:        flags&fuzzMemoize != 0,
			Hedge:          flags&fuzzHedge != 0,
			Theta:          theta,
			MinTheta:       minTheta,
			Publish:        []repro.PublishPolicy{repro.PublishAuto, repro.PublishPerRound, repro.PublishEveryR, repro.PublishBoundCrossing, "bogus"}[publish%5],
			PublishEvery:   int(publishEvery),
			Schedule:       []repro.Schedule{repro.ScheduleAuto, repro.ScheduleWave, repro.ScheduleCostAware, repro.ScheduleAdaptive, "bogus"}[schedule%5],
		}
		if flags&fuzzProgress != 0 {
			opts.OnProgress = func(repro.ProgressView) bool { return true }
		}
		if flags&fuzzCache != 0 {
			opts.Cache = &repro.CacheSpec{Pages: 2, PageSize: 4}
		}
		if flags&fuzzCosts != 0 {
			opts.Costs = repro.CostModel{CS: cs, CR: cr}
		}
		// Bits 0–3 of sorted pick lists 0–2 and the out-of-range list 3.
		for i := 0; i < 4; i++ {
			if sorted&(1<<i) != 0 {
				opts.SortedLists = append(opts.SortedLists, i)
			}
		}
		if fault != 0 {
			opts.Fault = &repro.FaultSpec{Rate: float64(fault&0x0f) / 40, DeadList: int(fault>>4) & 7, Seed: uint64(fault)}
		}
		if backend != 0 {
			opts.Backend = &repro.BackendSpec{
				SortedCost:      cs,
				RandomCost:      cr,
				Jitter:          float64(backend&3) / 2,
				StragglerShards: int(backend>>2) & 3,
				BatchRTT:        backend&0x80 != 0,
			}
		}

		res, err := repro.Query(db, tf, int(k)%14, opts)
		if err != nil {
			if !errors.Is(err, repro.ErrBadQuery) && (opts.Fault == nil || !errors.Is(err, repro.ErrBackend)) {
				t.Fatalf("%+v: rejection %v wraps neither ErrBadQuery nor, under faults, ErrBackend", opts, err)
			}
			return
		}
		if res.Theta != 1 || res.Stats.DeadShards != 0 {
			return // a θ-approximation, requested or degraded
		}
		naive, err := repro.Query(db, tf, int(k)%14, repro.Options{Algorithm: repro.AlgoNaive})
		if err != nil {
			t.Fatalf("Naive: %v", err)
		}
		got := core.TrueGradeMultiset(db, tf, res.Items)
		want := core.TrueGradeMultiset(db, tf, naive.Items)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d answers, Naive has %d", opts, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: true grades %v, Naive's %v", opts, got, want)
			}
		}
	})
}
