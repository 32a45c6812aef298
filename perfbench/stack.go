package main

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/traffic"
)

// probe counts and times the accesses crossing one layer boundary: calls,
// entries delivered by positional (sorted) and keyed (random) reads, calls
// that returned an error, and the wall time spent below the boundary.
type probe struct {
	calls, sorted, random, errs, ns atomic.Int64
}

func (p *probe) pos(t time.Time, n int, err error) {
	p.ns.Add(int64(time.Since(t)))
	p.calls.Add(1)
	p.sorted.Add(int64(n))
	if err != nil {
		p.errs.Add(1)
	}
}

func (p *probe) key(t time.Time, ok bool, err error) {
	p.ns.Add(int64(time.Since(t)))
	p.calls.Add(1)
	if ok && err == nil {
		p.random.Add(1)
	}
	if err != nil {
		p.errs.Add(1)
	}
}

// The timing decorators below each expose exactly the access interfaces of
// the layer they wrap: access.Source picks its unit-cost, batched, costed
// and infallible fast paths from that set, so a decorator that added or hid
// one would time a different program. stack_test.go checks the sets.

// tList times a model.List, the columns at the bottom of the stack.
type tList struct {
	probe
	src *model.List
}

func (l *tList) Len() int { return l.src.Len() }

func (l *tList) At(pos int) model.Entry {
	t := time.Now()
	e := l.src.At(pos)
	l.pos(t, 1, nil)
	return e
}

func (l *tList) AtN(pos int, dst []model.Entry) int {
	t := time.Now()
	n := l.src.AtN(pos, dst)
	l.pos(t, n, nil)
	return n
}

func (l *tList) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t := time.Now()
	g, ok := l.src.GradeOf(obj)
	l.key(t, ok, nil)
	return g, ok
}

// tRemote times an access.Remote.
type tRemote struct {
	probe
	src *access.Remote
}

func (r *tRemote) Len() int                      { return r.src.Len() }
func (r *tRemote) AccessCosts() access.CostModel { return r.src.AccessCosts() }
func (r *tRemote) Fallible() bool                { return r.src.Fallible() }

func (r *tRemote) At(pos int) model.Entry {
	t := time.Now()
	e := r.src.At(pos)
	r.pos(t, 1, nil)
	return e
}

func (r *tRemote) AtN(pos int, dst []model.Entry) int {
	t := time.Now()
	n := r.src.AtN(pos, dst)
	r.pos(t, n, nil)
	return n
}

func (r *tRemote) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t := time.Now()
	g, ok := r.src.GradeOf(obj)
	r.key(t, ok, nil)
	return g, ok
}

func (r *tRemote) AtErr(pos int) (model.Entry, error) {
	t := time.Now()
	e, err := r.src.AtErr(pos)
	r.pos(t, delivered(err), err)
	return e, err
}

func (r *tRemote) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t := time.Now()
	g, ok, err := r.src.GradeOfErr(obj)
	r.key(t, ok, err)
	return g, ok, err
}

func (r *tRemote) AtNErr(pos int, dst []model.Entry) (int, error) {
	t := time.Now()
	n, err := r.src.AtNErr(pos, dst)
	r.pos(t, n, err)
	return n, err
}

// tFaulty times an access.Faulty: fault injection over the remote backend.
type tFaulty struct {
	probe
	src *access.Faulty
}

func (f *tFaulty) Len() int                      { return f.src.Len() }
func (f *tFaulty) AccessCosts() access.CostModel { return f.src.AccessCosts() }
func (f *tFaulty) Fallible() bool                { return f.src.Fallible() }

func (f *tFaulty) At(pos int) model.Entry {
	t := time.Now()
	e := f.src.At(pos)
	f.pos(t, 1, nil)
	return e
}

func (f *tFaulty) AtN(pos int, dst []model.Entry) int {
	t := time.Now()
	n := f.src.AtN(pos, dst)
	f.pos(t, n, nil)
	return n
}

func (f *tFaulty) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t := time.Now()
	g, ok := f.src.GradeOf(obj)
	f.key(t, ok, nil)
	return g, ok
}

func (f *tFaulty) AtErr(pos int) (model.Entry, error) {
	t := time.Now()
	e, err := f.src.AtErr(pos)
	f.pos(t, delivered(err), err)
	return e, err
}

func (f *tFaulty) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t := time.Now()
	g, ok, err := f.src.GradeOfErr(obj)
	f.key(t, ok, err)
	return g, ok, err
}

func (f *tFaulty) AtNErr(pos int, dst []model.Entry) (int, error) {
	t := time.Now()
	n, err := f.src.AtNErr(pos, dst)
	f.pos(t, n, err)
	return n, err
}

func (f *tFaulty) AtCostErr(pos int) (model.Entry, float64, error) {
	t := time.Now()
	e, c, err := f.src.AtCostErr(pos)
	f.pos(t, delivered(err), err)
	return e, c, err
}

func (f *tFaulty) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	t := time.Now()
	g, ok, c, err := f.src.GradeOfCostErr(obj)
	f.key(t, ok, err)
	return g, ok, c, err
}

func (f *tFaulty) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	t := time.Now()
	n, err := f.src.AtCostNErr(pos, dst, costs)
	f.pos(t, n, err)
	return n, err
}

// cachedList is the method set access.Cache.Wrap serves; its concrete type
// is unexported.
type cachedList interface {
	access.CostedBatchList
	access.FallibleCostedBatchList
	AccessCosts() access.CostModel
	Fallible() bool
	AtNErr(pos int, dst []model.Entry) (int, error)
}

// tCached times one list of an access.Cache.
type tCached struct {
	probe
	src cachedList
}

func (c *tCached) Len() int                      { return c.src.Len() }
func (c *tCached) AccessCosts() access.CostModel { return c.src.AccessCosts() }
func (c *tCached) Fallible() bool                { return c.src.Fallible() }

func (c *tCached) At(pos int) model.Entry {
	t := time.Now()
	e := c.src.At(pos)
	c.pos(t, 1, nil)
	return e
}

func (c *tCached) AtCost(pos int) (model.Entry, float64) {
	t := time.Now()
	e, cost := c.src.AtCost(pos)
	c.pos(t, 1, nil)
	return e, cost
}

func (c *tCached) AtCostN(pos int, dst []model.Entry, costs []float64) int {
	t := time.Now()
	n := c.src.AtCostN(pos, dst, costs)
	c.pos(t, n, nil)
	return n
}

func (c *tCached) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t := time.Now()
	g, ok := c.src.GradeOf(obj)
	c.key(t, ok, nil)
	return g, ok
}

func (c *tCached) GradeOfCost(obj model.ObjectID) (model.Grade, bool, float64) {
	t := time.Now()
	g, ok, cost := c.src.GradeOfCost(obj)
	c.key(t, ok, nil)
	return g, ok, cost
}

func (c *tCached) AtErr(pos int) (model.Entry, error) {
	t := time.Now()
	e, err := c.src.AtErr(pos)
	c.pos(t, delivered(err), err)
	return e, err
}

func (c *tCached) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t := time.Now()
	g, ok, err := c.src.GradeOfErr(obj)
	c.key(t, ok, err)
	return g, ok, err
}

func (c *tCached) AtNErr(pos int, dst []model.Entry) (int, error) {
	t := time.Now()
	n, err := c.src.AtNErr(pos, dst)
	c.pos(t, n, err)
	return n, err
}

func (c *tCached) AtCostErr(pos int) (model.Entry, float64, error) {
	t := time.Now()
	e, cost, err := c.src.AtCostErr(pos)
	c.pos(t, delivered(err), err)
	return e, cost, err
}

func (c *tCached) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	t := time.Now()
	g, ok, cost, err := c.src.GradeOfCostErr(obj)
	c.key(t, ok, err)
	return g, ok, cost, err
}

func (c *tCached) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	t := time.Now()
	n, err := c.src.AtCostNErr(pos, dst, costs)
	c.pos(t, n, err)
	return n, err
}

func delivered(err error) int {
	if err != nil {
		return 0
	}
	return 1
}

// accessSet describes the access contract a list offers access.Source: the
// optional interfaces it implements, whether it can fail, and the costs it
// declares.
func accessSet(l access.ListSource) string {
	var has []string
	add := func(name string, ok bool) {
		if ok {
			has = append(has, name)
		}
	}
	_, ok := l.(access.BatchList)
	add("BatchList", ok)
	_, ok = l.(access.Backend)
	add("Backend", ok)
	_, ok = l.(access.CostedList)
	add("CostedList", ok)
	_, ok = l.(access.CostedBatchList)
	add("CostedBatchList", ok)
	_, ok = l.(access.FallibleList)
	add("FallibleList", ok)
	_, ok = l.(access.FallibleBatchList)
	add("FallibleBatchList", ok)
	_, ok = l.(access.FallibleCostedList)
	add("FallibleCostedList", ok)
	_, ok = l.(access.FallibleCostedBatchList)
	add("FallibleCostedBatchList", ok)
	_, ok = l.(interface{ Fallible() bool })
	add("Fallible()", ok)
	return fmt.Sprintf("%s fallible=%v costs=%+v", strings.Join(has, ","), access.IsFallible(l), access.BackendCosts(l))
}

// sameContract fails when a decorator's access contract differs from the
// layer it wraps.
func sameContract(layer string, wrapped, decorator access.ListSource) error {
	if a, b := accessSet(wrapped), accessSet(decorator); a != b {
		return fmt.Errorf("%s decorator exposes %q, the layer exposes %q", layer, b, a)
	}
	return nil
}

// Layer indexes of tracedStack.probes, bottom to top.
const (
	layerModel = iota
	layerRemote
	layerFault
	layerCache
	nLayers
)

// tracedStack is the per-shard stack repro.NewFaultyStack builds, assembled
// from the public constructors with a probe at every layer boundary.
type tracedStack struct {
	eng    *repro.Sharded
	caches []*access.Cache
	faulty []*access.Faulty
	probes [nLayers][]*probe
}

// newTracedStack mirrors repro.NewFaultyStack over already partitioned
// shards: per list, model.List → Remote → Faulty, then one cache per shard.
// Remote latency is zero, as in the benchmark's BackendSpec, and each fault
// plan is derived from the FaultSpec as NewFaultyStack derives it; the
// equivalence check holds the two stacks to identical behaviour.
func newTracedStack(parts []*repro.Database, fault *repro.FaultSpec) (*tracedStack, error) {
	ts := &tracedStack{}
	backends := make([]shard.ShardBackend, len(parts))
	for s, sdb := range parts {
		m := sdb.M()
		lists := make([]access.ListSource, m)
		for i := range lists {
			col := &tList{src: sdb.List(i)}
			rem := &tRemote{src: access.NewRemote(col, costs, access.Latency{})}
			f := access.NewFaulty(rem, access.FaultPlan{
				Seed: fault.Seed ^ (uint64(s*m+i)+1)*0x9e3779b97f4a7c15,
				Rate: fault.Rate,
			})
			flt := &tFaulty{src: f}
			for _, c := range []struct {
				layer              string
				wrapped, decorator access.ListSource
			}{{"model", sdb.List(i), col}, {"remote", rem.src, rem}, {"fault", f, flt}} {
				if err := sameContract(c.layer, c.wrapped, c.decorator); err != nil {
					return nil, err
				}
			}
			lists[i] = flt
			ts.faulty = append(ts.faulty, f)
			ts.probes[layerModel] = append(ts.probes[layerModel], &col.probe)
			ts.probes[layerRemote] = append(ts.probes[layerRemote], &rem.probe)
			ts.probes[layerFault] = append(ts.probes[layerFault], &flt.probe)
		}
		c := access.NewCache(access.CacheConfig{
			PageSize:    cacheSpec.PageSize,
			Pages:       cacheSpec.Pages,
			ColdPages:   cacheSpec.ColdPages,
			ColdHitCost: cacheSpec.ColdHitCost,
			Memo:        cacheSpec.Memo,
		})
		top := access.WrapLists(c, lists)
		for i, l := range top {
			cl, ok := l.(cachedList)
			if !ok {
				return nil, fmt.Errorf("cache list %T no longer serves the cached access contract", l)
			}
			dec := &tCached{src: cl}
			if err := sameContract("cache", l, dec); err != nil {
				return nil, err
			}
			top[i] = dec
			ts.probes[layerCache] = append(ts.probes[layerCache], &dec.probe)
		}
		ts.caches = append(ts.caches, c)
		backends[s] = shard.ShardBackend{DB: sdb, Lists: top, Cache: c}
	}
	eng, err := shard.FromBackends(backends)
	if err != nil {
		return nil, err
	}
	ts.eng = eng
	return ts, nil
}

// counts is a snapshot of every probe of one layer, summed.
type counts struct{ calls, sorted, random, errs, ns int64 }

func (c counts) minus(o counts) counts {
	return counts{c.calls - o.calls, c.sorted - o.sorted, c.random - o.random, c.errs - o.errs, c.ns - o.ns}
}

// snapshot is the state of a traced stack the cross-checks compare.
type snapshot struct {
	layers   [nLayers]counts
	cache    repro.CacheStats
	injected int64
}

func (ts *tracedStack) snapshot() snapshot {
	var s snapshot
	for l, ps := range ts.probes {
		for _, p := range ps {
			s.layers[l].calls += p.calls.Load()
			s.layers[l].sorted += p.sorted.Load()
			s.layers[l].random += p.random.Load()
			s.layers[l].errs += p.errs.Load()
			s.layers[l].ns += p.ns.Load()
		}
	}
	s.cache = sumCache(ts.eng.CacheStats())
	for _, f := range ts.faulty {
		s.injected += f.Injected()
	}
	return s
}

// delta is what the stack saw between two snapshots.
func (s snapshot) minus(o snapshot) snapshot {
	d := snapshot{injected: s.injected - o.injected}
	for l := range s.layers {
		d.layers[l] = s.layers[l].minus(o.layers[l])
	}
	a, b := s.cache, o.cache
	d.cache = repro.CacheStats{
		Hits:             a.Hits - b.Hits,
		ColdHits:         a.ColdHits - b.ColdHits,
		Misses:           a.Misses - b.Misses,
		ProbeHits:        a.ProbeHits - b.ProbeHits,
		ProbeMisses:      a.ProbeMisses - b.ProbeMisses,
		Evictions:        a.Evictions - b.Evictions,
		HotEvictions:     a.HotEvictions - b.HotEvictions,
		ColdEvictions:    a.ColdEvictions - b.ColdEvictions,
		AdmissionRejects: a.AdmissionRejects - b.AdmissionRejects,
		ChargedSaved:     a.ChargedSaved - b.ChargedSaved,
	}
	return d
}

func sumCache(per []repro.CacheStats) repro.CacheStats {
	var t repro.CacheStats
	for _, c := range per {
		t.Hits += c.Hits
		t.ColdHits += c.ColdHits
		t.Misses += c.Misses
		t.ProbeHits += c.ProbeHits
		t.ProbeMisses += c.ProbeMisses
		t.Evictions += c.Evictions
		t.HotEvictions += c.HotEvictions
		t.ColdEvictions += c.ColdEvictions
		t.AdmissionRejects += c.AdmissionRejects
		t.ChargedSaved += c.ChargedSaved
	}
	return t
}

// crossCheck holds the counts every probe saw during a phase against the
// engine's own accounting of the same phase: above the cache, the entries
// delivered are the queries' sorted and random accesses and every failed
// call is one Stats.Faults; below it, the entries fetched are the cache's
// misses and probe misses; every failure below the cache is one injected by
// Faulty; and Faulty, Remote and the columns pass the same entries down.
func crossCheck(d snapshot, t tally) error {
	if t.errs > 0 {
		return fmt.Errorf("%d queries failed, so their accesses are missing from Stats", t.errs)
	}
	c, f, r, m := d.layers[layerCache], d.layers[layerFault], d.layers[layerRemote], d.layers[layerModel]
	var errs []error
	check := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: probes saw %d, accounting says %d", what, got, want))
		}
	}
	check("sorted entries above the cache", c.sorted, t.sorted)
	check("random entries above the cache", c.random, t.random)
	check("failed calls above the cache", c.errs, t.faults)
	check("sorted entries below the cache", f.sorted, d.cache.Misses)
	check("random entries below the cache", f.random, d.cache.ProbeMisses)
	check("failed calls below the cache", f.errs, d.injected)
	check("sorted entries below Faulty", r.sorted, f.sorted)
	check("random entries below Faulty", r.random, f.random)
	check("sorted entries below Remote", m.sorted, r.sorted)
	check("random entries below Remote", m.random, r.random)
	return errors.Join(errs...)
}

// checkEquivalent runs reqs one at a time, with one shard worker at a time,
// through a fresh traced stack and a fresh repro.NewFaultyStack engine over
// the same database, and fails unless every answer, Stats and per-shard
// CacheStats agree.
func checkEquivalent(db *repro.Database, parts []*repro.Database, fault *repro.FaultSpec, p *plan, reqs []traffic.Request) error {
	ref, err := repro.NewFaultyStack(db, shards, backend, fault, cacheSpec)
	if err != nil {
		return err
	}
	ts, err := newTracedStack(parts, fault)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		pr := p.specs[r.Spec]
		so := pr.so
		so.Workers = 1
		want, werr := ref.Query(pr.spec.Agg, pr.spec.K, so)
		got, gerr := ts.eng.Query(pr.spec.Agg, pr.spec.K, so)
		switch {
		case (werr == nil) != (gerr == nil):
			return fmt.Errorf("request %d: untraced error %v, traced error %v", r.Seq, werr, gerr)
		case werr != nil:
			continue
		case !reflect.DeepEqual(want.Items, got.Items):
			return fmt.Errorf("request %d: traced answer differs", r.Seq)
		case !reflect.DeepEqual(want.Stats, got.Stats):
			return fmt.Errorf("request %d: traced Stats %+v, untraced %+v", r.Seq, got.Stats, want.Stats)
		case !reflect.DeepEqual(ref.CacheStats(), ts.eng.CacheStats()):
			return fmt.Errorf("request %d: traced CacheStats %+v, untraced %+v", r.Seq, ts.eng.CacheStats(), ref.CacheStats())
		}
	}
	return nil
}
