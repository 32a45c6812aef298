package core

import (
	"fmt"
	"math"

	"repro/internal/access"
)

// This file is the one place that decides which query options combine. A
// mode is the algorithm a query resolves to × the path that executes it;
// random access follows from the mode (the sharded engine's NRA workers
// make none, and NoRandomAccess is legal only with the algorithms that need
// none). Each row of compatTable names an option, the modes it is legal in
// and the reason; a row with no legal modes rejects a value that no mode
// accepts. The public Options and shard.Options both map onto OptionSet
// and call CheckOptions. The algorithms' own Source-policy checks (TAz is
// TA-only, FA and CA need random access, ...) stay with them for direct
// callers of this package.

// Path is the execution path that answers a query; Path values are bits,
// so a Path also serves as a set of paths.
type Path uint8

const (
	PathSequential Path = 1 << iota // one Source over the whole database
	PathSharedScan                  // BatchQuery's shared sorted scan
	PathSharded                     // the sharded engine
)

// Names of the sharded engine's publish policies and schedules; package
// shard types them as PublishPolicy and Schedule.
const (
	PublishAuto          = ""
	PublishPerRound      = "per-round"
	PublishEveryR        = "every-r"
	PublishBoundCrossing = "bound-crossing"
	ScheduleAuto         = ""
	ScheduleWave         = "wave"
	ScheduleCostAware    = "cost-aware"
	ScheduleAdaptive     = "adaptive"
)

// OptionSet is a query's options as the compatibility table reads them.
type OptionSet struct {
	Path Path
	// Algorithm is an algorithm name; empty selects TA, or NRA when
	// NoRandom is set.
	Algorithm            string
	Shards, PublishEvery int
	Theta, MinTheta      float64
	Publish, Schedule    string
	Costs                access.CostModel
	// SortedLists reports a restriction of sorted access (TAz); OnProgress,
	// Backend, Cache and Fault report that those options are set.
	NoRandom, CostAwareTA, SortedLists, OnProgress, Hedge bool
	Backend, Cache, Fault                                 bool
}

// algoSet is a set of the algorithms a query can resolve to.
type algoSet uint8

const (
	algTA algoSet = 1 << iota
	algCostAwareTA
	algFA
	algNRA
	algCA
	algNaive
	algMaxTopK
	anyAlgo = 1<<iota - 1
)

// algoBits maps the algorithm names Options accept; CostAwareTA is not a
// name but what TA resolves to under the CostAwareTA option.
var algoBits = map[string]algoSet{"TA": algTA, "FA": algFA, "NRA": algNRA, "CA": algCA, "Naive": algNaive, "MaxTopK": algMaxTopK}

const (
	seqPaths = PathSequential | PathSharedScan
	anyPath  = seqPaths | PathSharded
)

// modes is every combination of the listed algorithms and paths.
type modes struct {
	algos algoSet
	paths Path
}

// rule is one row of the table: when set reports that a query uses the
// option, the query's mode must lie in one of legal.
type rule struct {
	option string
	set    func(o *OptionSet) bool
	legal  []modes
	why    string
}

var (
	publishPolicies = map[string]bool{PublishAuto: true, PublishPerRound: true, PublishEveryR: true, PublishBoundCrossing: true}
	schedules       = map[string]bool{ScheduleAuto: true, ScheduleWave: true, ScheduleCostAware: true, ScheduleAdaptive: true}
	serialSchedules = map[string]bool{ScheduleCostAware: true, ScheduleAdaptive: true}
)

var compatTable = []rule{
	// Values no mode accepts.
	{"Shards", func(o *OptionSet) bool { return o.Shards < -1 }, nil, "Shards must be non-negative, or AutoShards (-1)"},
	{"Costs", func(o *OptionSet) bool { return o.Costs != (access.CostModel{}) && !validCosts(o.Costs) }, nil, "invalid cost model: cS must be positive and finite, cR non-negative and finite (zero means unit costs)"},
	{"Publish", func(o *OptionSet) bool { return !publishPolicies[o.Publish] }, nil, "unknown publish policy; use per-round, every-r or bound-crossing"},
	{"PublishEvery", func(o *OptionSet) bool { return o.PublishEvery < 0 }, nil, "PublishEvery must be non-negative"},
	{"PublishEvery", func(o *OptionSet) bool { return o.Publish == PublishPerRound && o.PublishEvery > 1 }, nil, "PublishEvery above 1 conflicts with the per-round publish policy"},
	{"Schedule", func(o *OptionSet) bool { return !schedules[o.Schedule] }, nil, "unknown schedule; use wave, cost-aware or adaptive"},
	{"MinTheta", func(o *OptionSet) bool { return o.MinTheta != 0 && !(o.MinTheta >= 1) }, nil, "MinTheta must be 0 (accept any certified θ) or at least 1, since θ ≥ 1 by definition"},
	{"Hedge", func(o *OptionSet) bool { return o.Hedge && !serialSchedules[o.Schedule] }, nil, "Hedge requires a serialized schedule (cost-aware or adaptive); the wave schedule already resumes every shard"},

	// Options and the modes they are legal in.
	{"Shards", func(o *OptionSet) bool { return o.Shards != 0 }, []modes{{anyAlgo, PathSharded}}, "sharded specs do not compose with the shared scan; use ParallelQueries"},
	{"Algorithm", func(*OptionSet) bool { return true }, []modes{{anyAlgo, seqPaths}, {algTA | algCostAwareTA | algNRA, PathSharded}}, "sharding supports only the TA and NRA algorithms"},
	{"NoRandomAccess", func(o *OptionSet) bool { return o.NoRandom }, []modes{{algNRA | algNaive | algMaxTopK, anyPath}}, "TA, CostAwareTA, FA and CA need random access; use NRA"},
	{"CostAwareTA", func(o *OptionSet) bool { return o.CostAwareTA }, []modes{{algCostAwareTA, anyPath}}, "CostAwareTA requires the TA algorithm with random access; sorted-only queries plan costs through Schedule"},
	// Only plain TA and the sharded engine read θ; the other sequential
	// algorithms ignore it.
	{"Theta", func(o *OptionSet) bool { return o.Theta > 1 }, []modes{{anyAlgo &^ algCostAwareTA, seqPaths}}, "θ-approximation is sequential; CostAwareTA and the sharded engine compute exact answers"},
	{"Theta", func(o *OptionSet) bool { return o.Theta != 0 && !(o.Theta >= 1) }, []modes{{anyAlgo &^ algTA, seqPaths}}, "θ must be at least 1"},
	{"SortedLists", func(o *OptionSet) bool { return o.SortedLists }, []modes{{anyAlgo, seqPaths}}, "sharding does not support restricting sorted access (TAz)"},
	{"OnProgress", func(o *OptionSet) bool { return o.OnProgress }, []modes{{anyAlgo, seqPaths}}, "sharding does not support the OnProgress callback"},
	{"Publish", func(o *OptionSet) bool { return o.Publish != PublishAuto || o.PublishEvery != 0 }, []modes{{algNRA, PathSharded}}, "publish batching applies only to sharded no-random-access queries; TA workers publish through their progress hook"},
	{"Schedule", func(o *OptionSet) bool { return o.Schedule != ScheduleAuto }, []modes{{algNRA, PathSharded}}, "scheduling policies apply only to sharded no-random-access queries; TA workers have no resume loop"},
	{"MinTheta", func(o *OptionSet) bool { return o.MinTheta != 0 }, []modes{{anyAlgo, PathSharded}}, "MinTheta applies to sharded queries; the sequential path has no surviving shards to degrade over"},
	{"Hedge", func(o *OptionSet) bool { return o.Hedge }, []modes{{algNRA, PathSharded}}, "Hedge applies to the sharded no-random-access resume loop; TA workers have none"},
	{"Fault", func(o *OptionSet) bool { return o.Fault }, []modes{{algTA | algCostAwareTA | algNRA | algCA, anyPath}}, "fault injection requires a failure-aware algorithm (TA, NRA or CA)"},
	{"Backend, Cache and Fault", func(o *OptionSet) bool { return o.Backend || o.Cache || o.Fault }, []modes{{anyAlgo, PathSequential | PathSharded}}, "per-query backend stacks do not compose with the shared scan; run them through Query or the sharded engine"},
}

// CheckOptions resolves the query's algorithm — TA, CostAwareTA, FA, NRA,
// CA, Naive or MaxTopK; on the sharded path NRA is the engine's
// no-random-access mode — and rejects an unknown algorithm name or the
// first table row whose option is set outside its legal modes. Every
// rejection wraps ErrBadQuery.
func CheckOptions(o OptionSet) (algorithm string, err error) {
	algorithm = o.Algorithm
	if algorithm == "" {
		algorithm = "TA"
		if o.NoRandom {
			algorithm = "NRA"
		}
	}
	algo, ok := algoBits[algorithm]
	if !ok {
		return algorithm, fmt.Errorf("%w: unknown algorithm %q; use TA, FA, NRA, CA, Naive or MaxTopK", ErrBadQuery, algorithm)
	}
	if o.CostAwareTA && algo == algTA {
		algorithm, algo = "CostAwareTA", algCostAwareTA
	}
	for _, r := range compatTable {
		if r.set(&o) && !r.allows(algo, o.Path) {
			return algorithm, fmt.Errorf("%w: %s: %s", ErrBadQuery, r.option, r.why)
		}
	}
	return algorithm, nil
}

// validCosts reports whether c has a finite positive cS and a finite
// non-negative cR; NaN fails both comparisons.
func validCosts(c access.CostModel) bool {
	return c.CS > 0 && c.CR >= 0 && !math.IsInf(c.CS, 1) && !math.IsInf(c.CR, 1)
}

func (r *rule) allows(algo algoSet, path Path) bool {
	for _, ms := range r.legal {
		if ms.algos&algo != 0 && ms.paths&path != 0 {
			return true
		}
	}
	return false
}
