package main

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/access"
	"repro/internal/traffic"
	datagen "repro/internal/workload"
)

func smallDB(t *testing.T) *repro.Database {
	t.Helper()
	db, err := datagen.IndependentUniform(datagen.Spec{N: 4000, M: lists, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Each decorator must offer access.Source exactly the contract of the layer
// it wraps, and the layers must differ, or the check would prove nothing.
func TestDecoratorsKeepAccessContract(t *testing.T) {
	col := smallDB(t).List(0)
	rem := access.NewRemote(col, costs, access.Latency{})
	flt := access.NewFaulty(rem, access.FaultPlan{Rate: 0.5})
	cached, ok := access.NewCache(access.CacheConfig{}).Wrap(0, flt).(cachedList)
	if !ok {
		t.Fatal("cache list does not serve the cached access contract")
	}
	layers := []struct {
		name               string
		wrapped, decorator access.ListSource
	}{
		{"model", col, &tList{src: col}},
		{"remote", rem, &tRemote{src: rem}},
		{"fault", flt, &tFaulty{src: flt}},
		{"cache", cached, &tCached{src: cached}},
	}
	seen := map[string]string{}
	for _, l := range layers {
		if err := sameContract(l.name, l.wrapped, l.decorator); err != nil {
			t.Error(err)
		}
		set := accessSet(l.wrapped)
		if prev, dup := seen[set]; dup {
			t.Errorf("layers %s and %s expose the same contract %q", prev, l.name, set)
		}
		seen[set] = l.name
	}
}

// On a request prefix the traced stack gives the untraced engine's answers,
// Stats and CacheStats, and the probes' counts agree with that accounting,
// with faults and retries in play.
func TestTracedStackMatchesFaultyStack(t *testing.T) {
	db := smallDB(t)
	parts, err := db.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	fault := &repro.FaultSpec{Rate: 0.01, Seed: 9}
	for _, name := range []string{"interactive-ta", "crawler-nra"} {
		w, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := w.stream(5, 0, 40)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newPlan(db, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEquivalent(db, parts, fault, p, reqs); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		ts, err := newTracedStack(parts, fault)
		if err != nil {
			t.Fatal(err)
		}
		before := ts.snapshot()
		var log shardLog
		tl := runConcurrently(reqs, tracedExec(ts.eng, p, &log))
		d := ts.snapshot().minus(before)
		if tl.wrong > 0 {
			t.Errorf("%s: %d wrong answers", name, tl.wrong)
		}
		if tl.faults == 0 {
			t.Errorf("%s: no faults injected; the fault path went untested", name)
		}
		if err := crossCheck(d, tl); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// runConcurrently runs every request once, spread over two callers.
func runConcurrently(reqs []traffic.Request, exec execFn) tally {
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]outcome, 1)
			for i := c; i < len(reqs); i += workers {
				exec(reqs[i:i+1], out)
				tallies[c].add(out[0])
			}
		}()
	}
	wg.Wait()
	var t tally
	for _, x := range tallies {
		t.merge(x)
	}
	return t
}
