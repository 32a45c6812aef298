package repro_test

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro"
)

var updateLegalSet = flag.Bool("update-legalset", false, "rewrite testdata/legalset.golden from the current code")

const legalSetGolden = "testdata/legalset.golden"

// legalSetDB is the N = 8, m = 3 database the legal-set matrix runs on.
func legalSetDB(t testing.TB) *repro.Database {
	t.Helper()
	b := repro.NewBuilder(3)
	for i := 0; i < 8; i++ {
		b.MustAdd(repro.ObjectID(i+1),
			repro.Grade(float64((i*5+1)%8)/8),
			repro.Grade(float64((i*3+2)%8)/8),
			repro.Grade(float64((i*7+3)%8)/8))
	}
	return b.MustBuild()
}

// optVal is one value of one option dimension.
type optVal[O any] struct {
	label string
	set   func(*O)
}

type optDim[O any] struct {
	name string
	vals []optVal[O]
}

func val[O any](label string, set func(*O)) optVal[O] { return optVal[O]{label, set} }

// queryDims are the Options dimensions the legal-set matrix covers pairwise.
func queryDims() []optDim[repro.Options] {
	type O = repro.Options
	algos := []optVal[O]{}
	for _, a := range []repro.AlgorithmName{"", repro.AlgoTA, repro.AlgoFA, repro.AlgoNRA, repro.AlgoCA, repro.AlgoNaive, repro.AlgoMaxTopK, "bogus"} {
		a := a
		algos = append(algos, val(string(a), func(o *O) { o.Algorithm = a }))
	}
	shards := []optVal[O]{}
	for _, p := range []int{0, 1, 2, repro.AutoShards, -2} {
		p := p
		shards = append(shards, val(fmt.Sprint(p), func(o *O) { o.Shards = p }))
	}
	boolDim := func(name string, set func(*O, bool)) optDim[O] {
		return optDim[O]{name, []optVal[O]{
			val("false", func(o *O) { set(o, false) }),
			val("true", func(o *O) { set(o, true) }),
		}}
	}
	floats := func(name string, set func(*O, float64), vs ...float64) optDim[O] {
		d := optDim[O]{name: name}
		for _, v := range vs {
			v := v
			d.vals = append(d.vals, val(fmt.Sprint(v), func(o *O) { set(o, v) }))
		}
		return d
	}
	publish := []optVal[O]{}
	for _, p := range []repro.PublishPolicy{repro.PublishAuto, repro.PublishPerRound, repro.PublishEveryR, repro.PublishBoundCrossing, "bogus"} {
		p := p
		publish = append(publish, val(string(p), func(o *O) { o.Publish = p }))
	}
	schedule := []optVal[O]{}
	for _, s := range []repro.Schedule{repro.ScheduleAuto, repro.ScheduleWave, repro.ScheduleCostAware, repro.ScheduleAdaptive, "bogus"} {
		s := s
		schedule = append(schedule, val(string(s), func(o *O) { o.Schedule = s }))
	}
	nan := math.NaN()
	return []optDim[O]{
		{"algo", algos},
		{"shards", shards},
		boolDim("norandom", func(o *O, v bool) { o.NoRandomAccess = v }),
		boolDim("costaware", func(o *O, v bool) { o.CostAwareTA = v }),
		boolDim("memoize", func(o *O, v bool) { o.Memoize = v }),
		{"progress", []optVal[O]{
			val("nil", func(o *O) { o.OnProgress = nil }),
			val("set", func(o *O) { o.OnProgress = func(repro.ProgressView) bool { return true } }),
		}},
		boolDim("hedge", func(o *O, v bool) { o.Hedge = v }),
		floats("theta", func(o *O, v float64) { o.Theta = v }, 0, 0.5, 1, 2, nan),
		{"sorted", []optVal[O]{
			val("nil", func(o *O) { o.SortedLists = nil }),
			val("[0]", func(o *O) { o.SortedLists = []int{0} }),
			val("[5]", func(o *O) { o.SortedLists = []int{5} }),
		}},
		{"publish", publish},
		{"schedule", schedule},
		{"pubevery", []optVal[O]{
			val("-1", func(o *O) { o.PublishEvery = -1 }),
			val("0", func(o *O) { o.PublishEvery = 0 }),
			val("4", func(o *O) { o.PublishEvery = 4 }),
		}},
		{"fault", []optVal[O]{
			val("nil", func(o *O) { o.Fault = nil }),
			val("valid", func(o *O) { o.Fault = &repro.FaultSpec{Rate: 0.02, Seed: 7} }),
			val("badrate", func(o *O) { o.Fault = &repro.FaultSpec{Rate: 2} }),
			val("dead>m", func(o *O) { o.Fault = &repro.FaultSpec{DeadList: 4} }),
		}},
		{"backend", []optVal[O]{
			val("nil", func(o *O) { o.Backend = nil }),
			val("valid", func(o *O) { o.Backend = &repro.BackendSpec{SortedCost: 1, RandomCost: 2} }),
			val("invalid", func(o *O) { o.Backend = &repro.BackendSpec{SortedCost: -1} }),
		}},
		{"cache", []optVal[O]{
			val("nil", func(o *O) { o.Cache = nil }),
			val("set", func(o *O) { o.Cache = &repro.CacheSpec{} }),
		}},
		floats("mintheta", func(o *O, v float64) { o.MinTheta = v }, 0, 0.5, 2, nan),
		{"costs", []optVal[O]{
			val("zero", func(o *O) { o.Costs = repro.CostModel{} }),
			val("valid", func(o *O) { o.Costs = repro.CostModel{CS: 1, CR: 8} }),
			val("invalid", func(o *O) { o.Costs = repro.CostModel{CS: -1, CR: 8} }),
		}},
	}
}

// shardDims are the ShardOptions dimensions covered pairwise on a Sharded
// handle.
func shardDims() []optDim[repro.ShardOptions] {
	type O = repro.ShardOptions
	all := queryDims()
	pick := func(name string) []optVal[repro.Options] {
		for _, d := range all {
			if d.name == name {
				return d.vals
			}
		}
		panic(name)
	}
	// Reuse the Options values for the fields both structs share, applying
	// each to a scratch Options and copying the field across.
	lift := func(name string, copyField func(*O, *repro.Options)) optDim[O] {
		d := optDim[O]{name: name}
		for _, v := range pick(name) {
			v := v
			d.vals = append(d.vals, val(v.label, func(o *O) {
				var q repro.Options
				v.set(&q)
				copyField(o, &q)
			}))
		}
		return d
	}
	return []optDim[O]{
		lift("norandom", func(o *O, q *repro.Options) { o.NoRandomAccess = q.NoRandomAccess }),
		lift("costaware", func(o *O, q *repro.Options) { o.CostAwareTA = q.CostAwareTA }),
		lift("memoize", func(o *O, q *repro.Options) { o.Memoize = q.Memoize }),
		lift("costs", func(o *O, q *repro.Options) { o.Costs = q.Costs }),
		lift("publish", func(o *O, q *repro.Options) { o.Publish = q.Publish }),
		lift("pubevery", func(o *O, q *repro.Options) { o.PublishEvery = q.PublishEvery }),
		lift("schedule", func(o *O, q *repro.Options) { o.Schedule = q.Schedule }),
		lift("mintheta", func(o *O, q *repro.Options) { o.MinTheta = q.MinTheta }),
		lift("hedge", func(o *O, q *repro.Options) { o.Hedge = q.Hedge }),
	}
}

// pairwise calls f for every pair of values of every pair of dimensions,
// each applied on top of base, with a key naming the case.
func pairwise[O any](base O, dims []optDim[O], f func(key string, o O)) {
	for i := range dims {
		for j := i + 1; j < len(dims); j++ {
			for _, vi := range dims[i].vals {
				for _, vj := range dims[j].vals {
					o := base
					vi.set(&o)
					vj.set(&o)
					f(fmt.Sprintf("%s=%s %s=%s", dims[i].name, vi.label, dims[j].name, vj.label), o)
				}
			}
		}
	}
}

// outcome classifies a run: ok, bad (wraps ErrBadQuery), err (any other
// error) or panic.
func outcome(run func() error) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = "panic"
		}
	}()
	switch err := run(); {
	case err == nil:
		return "ok"
	case errors.Is(err, repro.ErrBadQuery):
		return "bad"
	default:
		return "err"
	}
}

// legalSetMatrix runs every case and returns one "key: outcomes" line each.
func legalSetMatrix(t *testing.T) []string {
	db := legalSetDB(t)
	tf := repro.Max(3)
	const k = 2
	var lines []string
	bases := []struct {
		name string
		opts repro.Options
	}{
		{"seqTA", repro.Options{}},
		{"seqNRA", repro.Options{Algorithm: repro.AlgoNRA, NoRandomAccess: true}},
		{"shTA", repro.Options{Shards: 2}},
		{"shNRA", repro.Options{Shards: 2, NoRandomAccess: true}},
	}
	for _, b := range bases {
		pairwise(b.opts, queryDims(), func(key string, o repro.Options) {
			q := outcome(func() error { _, err := repro.Query(db, tf, k, o); return err })
			batch := "-"
			if o.Shards == 0 {
				batch = outcome(func() error {
					return repro.BatchQuery(db, []repro.QuerySpec{{Agg: tf, K: k, Opts: o}}, 1).Outcomes[0].Err
				})
			}
			lines = append(lines, fmt.Sprintf("%s %s: query=%s batch=%s", b.name, key, q, batch))
		})
	}
	for _, p := range []int{1, 2} {
		eng, err := repro.NewSharded(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name string
			opts repro.ShardOptions
		}{
			{fmt.Sprintf("engTA%d", p), repro.ShardOptions{}},
			{fmt.Sprintf("engNRA%d", p), repro.ShardOptions{NoRandomAccess: true}},
		} {
			pairwise(b.opts, shardDims(), func(key string, o repro.ShardOptions) {
				q := outcome(func() error { _, err := eng.Query(tf, k, o); return err })
				lines = append(lines, fmt.Sprintf("%s %s: query=%s", b.name, key, q))
			})
		}
	}
	return lines
}

// TestLegalSetGolden characterizes which option combinations the public
// entry points accept: every pairwise combination of option values, from
// sequential and sharded TA and NRA bases, through Query, BatchQuery and
// Sharded.Query, must accept or reject exactly as recorded in
// testdata/legalset.golden, and every rejection must wrap ErrBadQuery.
// Regenerate with -update-legalset after a deliberate change to the legal
// set, and review the golden diff.
func TestLegalSetGolden(t *testing.T) {
	got := legalSetMatrix(t)
	for _, l := range got {
		if strings.Contains(l, "=err") || strings.Contains(l, "=panic") {
			t.Errorf("rejection does not wrap ErrBadQuery: %s", l)
		}
	}
	if *updateLegalSet {
		if err := os.WriteFile(legalSetGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(legalSetGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matrix has %d cases, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("case changed:\n  got  %s\n  want %s", got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... %d changed cases in total", bad)
	}
}
