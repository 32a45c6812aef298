package main

import (
	"fmt"
	"slices"

	"repro"
	"repro/internal/core"
	"repro/internal/traffic"
)

// prepared is one distinct request spec resolved against the database,
// with the answer it must produce.
type prepared struct {
	spec repro.QuerySpec
	so   repro.ShardOptions
	want []repro.Grade // true-grade multiset of the Naive answer
}

// plan holds every distinct spec a run can issue.
type plan struct {
	db    *repro.Database
	specs map[traffic.QuerySpec]*prepared
}

// newPlan resolves the distinct specs of the streams and computes each
// expected answer with AlgoNaive.
func newPlan(db *repro.Database, streams ...[]traffic.Request) (*plan, error) {
	p := &plan{db: db, specs: make(map[traffic.QuerySpec]*prepared)}
	var order []*prepared
	var naive []repro.QuerySpec
	for _, reqs := range streams {
		for _, r := range reqs {
			if p.specs[r.Spec] != nil {
				continue
			}
			spec, err := repro.SpecFromTraffic(db, r.Spec, repro.Options{Costs: costs})
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", r.Seq, err)
			}
			pr := &prepared{spec: spec, so: repro.ShardOptions{
				CostAwareTA:    spec.Opts.CostAwareTA,
				NoRandomAccess: spec.Opts.Algorithm == repro.AlgoNRA,
				Costs:          costs,
			}}
			p.specs[r.Spec] = pr
			order = append(order, pr)
			naive = append(naive, repro.QuerySpec{Agg: spec.Agg, K: spec.K, Opts: repro.Options{Algorithm: repro.AlgoNaive}})
		}
	}
	for i, o := range repro.ParallelQueries(db, naive, workers) {
		if o.Err != nil {
			return nil, fmt.Errorf("naive answer: %w", o.Err)
		}
		order[i].want = core.TrueGradeMultiset(db, o.Spec.Agg, o.Result.Items)
	}
	return p, nil
}

// outcome is one request's answer as the driver judged it.
type outcome struct {
	res   *repro.Result
	err   error
	wrong bool
}

// judge compares an answer with the expected one as tie-safe true-grade
// multisets. For NRA this checks the true grades of the returned object set,
// since NRA's own grades are lower bounds.
func (p *plan) judge(pr *prepared, res *repro.Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	got := core.TrueGradeMultiset(p.db, pr.spec.Agg, res.Items)
	return outcome{res: res, wrong: !slices.Equal(got, pr.want)}
}
