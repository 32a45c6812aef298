package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/workload"
)

// TestCostAwareTAMatchesTA cross-checks CostAwareTA against TA on the
// whole database battery (uniform, correlated, Zipf, tie-heavy plateau,
// …) and the whole aggregation battery: same true-grade multiset, exact
// reported grades, and GradesExact always true.
func TestCostAwareTAMatchesTA(t *testing.T) {
	const m = 3
	for name, db := range databasesUnderTest(t, m) {
		for _, tf := range aggsFor(m) {
			for _, k := range []int{1, 5, 10} {
				if k > db.N() {
					continue
				}
				ta, err := (&TA{}).Run(access.New(db, access.AllowAll), tf, k)
				if err != nil {
					t.Fatalf("%s/%s/k=%d: TA: %v", name, tf.Name(), k, err)
				}
				for _, h := range []int{0, 4} {
					ca, err := (&CostAwareTA{H: h}).Run(access.New(db, access.AllowAll), tf, k)
					if err != nil {
						t.Fatalf("%s/%s/k=%d/h=%d: %v", name, tf.Name(), k, h, err)
					}
					if !ca.GradesExact {
						t.Fatalf("%s/%s/k=%d/h=%d: GradesExact false", name, tf.Name(), k, h)
					}
					want := TrueGradeMultiset(db, tf, ta.Items)
					got := TrueGradeMultiset(db, tf, ca.Items)
					if !gradeMultisetsEqual(want, got) {
						t.Fatalf("%s/%s/k=%d/h=%d: grade multiset %v, want %v",
							name, tf.Name(), k, h, got, want)
					}
					// Reported grades must equal the true overall grades,
					// not just bound the right objects.
					for _, it := range ca.Items {
						if truth := tf.Apply(db.Grades(it.Object)); it.Grade != truth {
							t.Fatalf("%s/%s/k=%d/h=%d: object %d reported %v, true %v",
								name, tf.Name(), k, h, it.Object, it.Grade, truth)
						}
					}
				}
			}
		}
	}
}

// TestCostAwareTACheaperWhenRandomExpensive pins the tentpole claim at the
// core level: against backends declaring cR/cS ≥ 4, cost-aware TA's
// charged middleware cost is below plain TA's on a plain workload.
func TestCostAwareTACheaperWhenRandomExpensive(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 8000, M: 3, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	for _, ratio := range []float64{4, 8, 16} {
		cm := access.CostModel{CS: 1, CR: ratio}
		src := func() *access.Source {
			lists := make([]access.ListSource, db.M())
			for i := range lists {
				lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
			}
			return access.FromLists(lists, access.AllowAll)
		}
		ta, err := (&TA{}).Run(src(), tf, 10)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := (&CostAwareTA{}).Run(src(), tf, 10)
		if err != nil {
			t.Fatal(err)
		}
		if ca.Stats.Charged() >= ta.Stats.Charged() {
			t.Fatalf("cR/cS=%g: cost-aware TA charged %g, TA charged %g",
				ratio, ca.Stats.Charged(), ta.Stats.Charged())
		}
	}
}

// TestCostAwareTAPhasePeriod checks the h derivation precedence: explicit
// H, then declared backend costs, then the configured cost model, then
// unit costs.
func TestCostAwareTAPhasePeriod(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 50, M: 2, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	plain := access.New(db, access.AllowAll)
	declared := func(cm access.CostModel) *access.Source {
		lists := make([]access.ListSource, db.M())
		for i := range lists {
			lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
		}
		return access.FromLists(lists, access.AllowAll)
	}
	cases := []struct {
		name string
		a    CostAwareTA
		src  *access.Source
		want int
	}{
		{"explicit H wins", CostAwareTA{H: 7, Costs: access.CostModel{CS: 1, CR: 3}}, plain, 7},
		{"declared backend costs", CostAwareTA{}, declared(access.CostModel{CS: 1, CR: 12}), 12},
		{"declared beats configured", CostAwareTA{Costs: access.CostModel{CS: 1, CR: 3}}, declared(access.CostModel{CS: 1, CR: 12}), 12},
		{"configured on plain lists", CostAwareTA{Costs: access.CostModel{CS: 1, CR: 5}}, plain, 5},
		{"unit fallback", CostAwareTA{}, plain, 1},
	}
	for _, c := range cases {
		if got := c.a.phasePeriod(c.src); got != c.want {
			t.Errorf("%s: h = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCostAwareTAPlannerDeepensCheapLists checks the CA-style allocation:
// with one list declared far more expensive than the others, the cheap
// lists end up deeper than the expensive one (fairness still touches it).
func TestCostAwareTAPlannerDeepensCheapLists(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 4000, M: 3, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	lists := make([]access.ListSource, db.M())
	for i := range lists {
		cm := access.CostModel{CS: 1, CR: 4}
		if i == 0 {
			cm = access.CostModel{CS: 16, CR: 64}
		}
		lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
	}
	src := access.FromLists(lists, access.AllowAll)
	res, err := (&CostAwareTA{}).Run(src, agg.Avg(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	per := res.Stats.PerList
	if per[0] >= per[1] || per[0] >= per[2] {
		t.Fatalf("expensive list 0 deepened as much as cheap lists: depths %v", per)
	}
	if per[0] == 0 {
		t.Fatalf("fairness should still sample the expensive list: depths %v", per)
	}
}

// TestCostAwareTAEarlyStop checks the OnProgress contract: stopping early
// returns only pinned (exact-grade) candidates, and the reported ceiling
// bounds every object outside them.
func TestCostAwareTAEarlyStop(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	steps := 0
	var lastCeil float64
	a := &CostAwareTA{OnProgress: func(p Progress) bool {
		steps++
		lastCeil = float64(p.Threshold)
		for _, it := range p.TopK {
			if it.Lower != it.Upper || it.Grade != it.Lower {
				t.Fatalf("progress TopK carries an unpinned item: %+v", it)
			}
		}
		return steps < 40
	}}
	res, err := a.Run(access.New(db, access.AllowAll), tf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GradesExact {
		t.Fatal("early-stopped result must still carry exact grades")
	}
	for _, it := range res.Items {
		if truth := tf.Apply(db.Grades(it.Object)); it.Grade != truth {
			t.Fatalf("object %d reported %v, true %v", it.Object, it.Grade, truth)
		}
		if float64(it.Grade) > lastCeil {
			// Items above the ceiling are fine (they are *inside* TopK);
			// nothing to assert here — the ceiling bounds the rest.
			continue
		}
	}
	if steps != 40 {
		t.Fatalf("run took %d progress steps, want stop at 40", steps)
	}
}

// TestCostAwareTAValidation pins the capability checks.
func TestCostAwareTAValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20, M: 2, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&CostAwareTA{}).Run(access.New(db, access.Policy{NoRandom: true}), agg.Min(2), 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("NoRandom: err = %v, want ErrBadQuery", err)
	}
	if _, err := (&CostAwareTA{}).Run(access.New(db, access.OnlySorted(0)), agg.Min(2), 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("restricted sorted access: err = %v, want ErrBadQuery", err)
	}
	// A single list needs no random access at all.
	db1, err := workload.IndependentUniform(workload.Spec{N: 20, M: 1, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&CostAwareTA{}).Run(access.New(db1, access.Policy{NoRandom: true}), agg.Min(1), 3)
	if err != nil {
		t.Fatalf("m=1 without random access: %v", err)
	}
	if res.Stats.Random != 0 {
		t.Fatalf("m=1 run made %d random accesses", res.Stats.Random)
	}
	if math.IsNaN(float64(res.Items[0].Grade)) {
		t.Fatal("bad grade")
	}
}

// TestTiedBoundsStayCheap pins the bucketed bookkeeping's saving on the
// tie case: under min every object seen in one list shares one B, and a
// single candidate heap refreshed every tied candidate before a fresh top
// surfaced (about 50 bound recomputes per sorted access for CA here and
// 38 for cost-aware TA). Buckets keyed by known-field mask stop at the
// first member that reaches its bucket's cap.
func TestTiedBoundsStayCheap(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Min(3)
	costs := access.CostModel{CS: 1, CR: 8}
	for _, al := range []Algorithm{&CA{Costs: costs}, &CostAwareTA{Costs: costs}} {
		res, err := al.Run(access.New(db, access.AllowAll), tf, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !gradeMultisetsEqual(TrueGradeMultiset(db, tf, res.Items), groundTruth(db, tf, 10)) {
			t.Fatalf("%s: wrong top-k", al.Name())
		}
		per := float64(res.Stats.BoundRecomputes) / float64(res.Stats.Sorted)
		t.Logf("%s: %d recomputes over %d sorted accesses (%.1f each)", al.Name(), res.Stats.BoundRecomputes, res.Stats.Sorted, per)
		if per > 10 {
			t.Errorf("%s: %.1f bound recomputes per sorted access, want ≤ 10", al.Name(), per)
		}
	}
}
