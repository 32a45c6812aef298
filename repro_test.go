package repro_test

import (
	"errors"
	"math"
	"testing"

	"repro"
)

func sampleDB(t *testing.T) *repro.Database {
	t.Helper()
	b := repro.NewBuilder(3)
	b.MustAdd(1, 0.9, 0.8, 0.7)  // avg 0.8
	b.MustAdd(2, 0.5, 0.5, 0.5)  // avg 0.5
	b.MustAdd(3, 0.99, 0.1, 0.2) // avg ~0.43
	b.MustAdd(4, 0.6, 0.7, 0.8)  // avg 0.7
	b.MustAdd(5, 0.1, 0.2, 0.3)  // avg 0.2
	return b.MustBuild()
}

func TestTopKDefault(t *testing.T) {
	db := sampleDB(t)
	res, err := repro.TopK(db, repro.Avg(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("got %d items", len(res.Items))
	}
	if res.Items[0].Object != 1 || res.Items[1].Object != 4 {
		t.Fatalf("top-2 = %v, want objects 1 and 4", res.Objects())
	}
	if math.Abs(float64(res.Items[0].Grade)-0.8) > 1e-12 {
		t.Fatalf("top grade = %v, want 0.8", res.Items[0].Grade)
	}
	if res.Stats.Sorted == 0 {
		t.Fatal("no accounting recorded")
	}
}

func TestQueryEveryAlgorithmAgrees(t *testing.T) {
	db := sampleDB(t)
	for _, algo := range []repro.AlgorithmName{
		repro.AlgoTA, repro.AlgoFA, repro.AlgoNRA, repro.AlgoCA, repro.AlgoNaive,
	} {
		opts := repro.Options{Algorithm: algo}
		if algo == repro.AlgoNRA {
			opts.NoRandomAccess = true
		}
		res, err := repro.Query(db, repro.Min(3), 1, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Items[0].Object != 1 {
			t.Errorf("%s: top object %d, want 1", algo, res.Items[0].Object)
		}
	}
	res, err := repro.Query(db, repro.Max(3), 1, repro.Options{Algorithm: repro.AlgoMaxTopK})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Object != 3 || res.Items[0].Grade != 0.99 {
		t.Errorf("MaxTopK: got %v", res.Items[0])
	}
}

func TestQueryNoRandomDefaultsToNRA(t *testing.T) {
	db := sampleDB(t)
	res, err := repro.Query(db, repro.Avg(3), 1, repro.Options{NoRandomAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Random != 0 {
		t.Fatalf("made %d random accesses under NoRandomAccess", res.Stats.Random)
	}
	if res.Items[0].Object != 1 {
		t.Fatalf("top object %d, want 1", res.Items[0].Object)
	}
}

func TestQueryTheta(t *testing.T) {
	db := sampleDB(t)
	res, err := repro.Query(db, repro.Avg(3), 1, repro.Options{Theta: 2})
	if err != nil {
		t.Fatal(err)
	}
	// θ·t(answer) must dominate every other grade.
	worst := 2 * float64(repro.Avg(3).Apply(db.Grades(res.Items[0].Object)))
	for _, obj := range db.Objects() {
		g := float64(repro.Avg(3).Apply(db.Grades(obj)))
		if g > worst+1e-12 {
			t.Fatalf("θ-approximation violated: %v > %v", g, worst)
		}
	}
}

func TestQuerySortedListsRestriction(t *testing.T) {
	db := sampleDB(t)
	res, err := repro.Query(db, repro.Avg(3), 1, repro.Options{SortedLists: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Object != 1 {
		t.Fatalf("TAz top object %d, want 1", res.Items[0].Object)
	}
	if res.Stats.PerList[1] != 0 || res.Stats.PerList[2] != 0 {
		t.Fatal("TAz did sorted access outside Z")
	}
	if _, err := repro.Query(db, repro.Avg(3), 1, repro.Options{SortedLists: []int{9}}); err == nil {
		t.Fatal("expected out-of-range list error")
	}
}

func TestQueryEarlyStop(t *testing.T) {
	db := sampleDB(t)
	calls := 0
	res, err := repro.Query(db, repro.Avg(3), 1, repro.Options{
		OnProgress: func(p repro.ProgressView) bool {
			calls++
			return calls < 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("progress called %d times, want 2", calls)
	}
	if res.Theta < 1 {
		t.Fatalf("early-stopped run reported θ=%v", res.Theta)
	}
}

func TestQueryValidation(t *testing.T) {
	db := sampleDB(t)
	if _, err := repro.Query(nil, repro.Min(3), 1, repro.Options{}); err == nil {
		t.Error("nil database accepted")
	}
	if _, err := repro.Query(db, repro.Min(3), 1, repro.Options{Algorithm: "ZA"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := repro.Query(db, repro.Min(3), 1, repro.Options{Costs: repro.CostModel{CS: -1, CR: 1}}); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := repro.Query(db, repro.Min(2), 1, repro.Options{}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := repro.Query(db, repro.Min(3), 1, repro.Options{Theta: math.NaN()}); !errors.Is(err, repro.ErrBadQuery) {
		t.Errorf("NaN θ: err = %v, want ErrBadQuery", err)
	}
	// A non-finite cost model is rejected on every path that reads one.
	nan, inf := math.NaN(), math.Inf(1)
	eng, err := repro.NewSharded(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []repro.CostModel{{CS: nan, CR: 1}, {CS: 1, CR: nan}, {CS: inf, CR: 1}, {CS: 1, CR: inf}} {
		for name, o := range map[string]repro.Options{
			"TA":             {Costs: c},
			"CA":             {Algorithm: "CA", Costs: c},
			"cost-aware TA":  {CostAwareTA: true, Costs: c},
			"sharded TA":     {Shards: 2, Costs: c},
			"sharded c-a TA": {Shards: 2, CostAwareTA: true, Costs: c},
		} {
			if _, err := repro.Query(db, repro.Min(3), 1, o); !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("%s with costs %+v: err = %v, want ErrBadQuery", name, c, err)
			}
		}
		if _, err := eng.Query(repro.Min(3), 1, repro.ShardOptions{Costs: c}); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("Sharded.Query with costs %+v: err = %v, want ErrBadQuery", c, err)
		}
	}
}

func TestResultCost(t *testing.T) {
	db := sampleDB(t)
	res, err := repro.TopK(db, repro.Avg(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	cm := repro.CostModel{CS: 1, CR: 10}
	want := float64(res.Stats.Sorted) + 10*float64(res.Stats.Random)
	if got := res.Cost(cm); got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}
