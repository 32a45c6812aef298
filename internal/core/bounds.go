package core

import (
	"container/heap"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// This file implements the W/B bound bookkeeping shared by NRA, CA and the
// intermittent algorithm (Section 8). For an object R with known field set
// S(R):
//
//	W(R) = t(known fields, 0 for missing)        — Proposition 8.1, t(R) ≥ W(R)
//	B(R) = t(known fields, bottom xᵢ for missing) — Proposition 8.2, t(R) ≤ B(R)
//
// An unseen object has W = t(0,…,0) and B = t(x̄₁,…,x̄ₘ) = the TA threshold.
// The current top-k list T_k holds the k largest W values (ties broken by
// larger B, then smaller id); M_k is the k-th largest W. An object outside
// T_k is viable while B > M_k; the algorithms halt when k objects have been
// seen and no viable object remains outside T_k.
//
// Two engines maintain the bounds (Remark 8.7's bookkeeping question):
//
//   - rescan: every stopping-rule check recomputes B for every seen
//     object and re-sorts T_k — the paper's Ω(d²m) straightforward
//     bookkeeping.
//   - lazy: B values are cached and only refreshed on demand. Sound
//     because bottom values only decrease, so a cached B is always an
//     upper bound on the fresh B, and M_k never decreases, so an object
//     that once becomes non-viable stays non-viable and can be retired.
//     A cached B is fresh while no bottom has fallen since it was
//     computed (table.clock), not merely within one depth: a round's
//     later lists lower bottoms after its earlier lists' objects are
//     bounded, and a B cached before that would hold the stopping rule
//     back by a round. T_k's tie-break on W reads B as of the latest
//     check, as in the rescan engine (syncTopK), so both engines hold the
//     same T_k and halt at the same depth.
//
// The lazy engine keeps the candidates outside T_k in buckets, one max-heap
// (by cached B) per known-field mask S. Members of one bucket take the same
// bottoms for their missing fields, so, t being monotone, none can have a
// B above the bucket's cap Uₛ = t(1 on S, x̄ off S). Caps only fall as the
// bottoms do, so a cap from an earlier clock still bounds the bucket, and
// min(cached top B, cap) bounds every member's fresh B. The buckets sit in
// one max-heap on that bound and drainTop searches them best-first: when the
// best bucket's bound is exact — a fresh top, or a member whose fresh B
// reaches the fresh cap — no candidate anywhere can beat it. Under min or
// median most candidates of a bucket tie at Uₛ, so the search stops after
// one refresh where one heap would refresh every tied candidate first.
type partial struct {
	obj    model.ObjectID
	known  uint64
	nKnown int
	grades []model.Grade

	w   model.Grade // exact lower bound, updated on every learned field
	b   model.Grade // cached upper bound; fresh iff bAt == table.clock
	bAt int

	retired bool // proven non-viable forever (lazy engine)
	inTopK  bool
	bkt     *bucket // lazy engine: the bucket holding p, nil if none
	heapIdx int     // position in bkt's heap, -1 if absent
}

// candHeap is a max-heap of candidates ordered by cached (possibly stale) B.
type candHeap []*partial

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].b > h[j].b }
func (h *candHeap) Push(x interface{}) { p := x.(*partial); p.heapIdx = len(*h); *h = append(*h, p) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}
func (h candHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// bucket holds the lazy engine's candidates with one known-field mask.
type bucket struct {
	mask uint64
	h    candHeap

	// cap is Uₛ as of capAt (+Inf before the first evaluation); hit,
	// when it is still a fresh member at capAt, is one whose B equals
	// cap.
	cap   model.Grade
	capAt int
	hit   *partial

	bound model.Grade // min(cached top B, cap) ≥ every member's fresh B
	idx   int         // position in table.buckets
}

// bucketHeap is a max-heap of buckets ordered by bound.
type bucketHeap []*bucket

func (h bucketHeap) Len() int            { return len(h) }
func (h bucketHeap) Less(i, j int) bool  { return h[i].bound > h[j].bound }
func (h *bucketHeap) Push(x interface{}) { b := x.(*bucket); b.idx = len(*h); *h = append(*h, b) }
func (h *bucketHeap) Pop() interface{} {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}
func (h bucketHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

// table is the candidate bookkeeping shared by NRA, CA and Intermittent.
type table struct {
	t    agg.Func
	m, k int
	src  *access.Source
	lazy bool

	depth    int
	clock    int // advances whenever a bottom falls; see partial.bAt
	bottoms  []model.Grade
	observed uint64 // invariants build: lists that produced ≥1 sorted entry
	parts    map[model.ObjectID]*partial
	topk     []*partial // ≤ k entries, ordered best-first by (w, b, id)
	full     uint64     // the mask with every field known
	// Lazy engine: the seen objects outside topk that are not retired,
	// bucketed by known-field mask; buckets is a max-heap on each
	// bucket's bound, byMask finds a mask's bucket, spare recycles
	// emptied ones.
	buckets bucketHeap
	byMask  map[uint64]*bucket
	spare   []*bucket
	// Lazy engine: the clock and bottoms of the latest stopping-rule
	// check, where the rescan engine refreshes every B (see syncTopK).
	syncAt      int
	syncBottoms []model.Grade

	scratch []model.Grade

	// Bump allocators: partial structs and their grade slices are carved
	// out of slab allocations so the sorted-access hot path costs ~2 heap
	// allocations per partSlabSize objects instead of 2 per object.
	partSlab  []partial
	gradeSlab []model.Grade
}

const partSlabSize = 128

func newTable(src *access.Source, t agg.Func, k int, lazy bool) *table {
	m := src.M()
	tb := &table{
		t: t, m: m, k: k, src: src, lazy: lazy,
		bottoms: make([]model.Grade, m),
		full:    ^uint64(0) >> uint(64-m),
		parts:   make(map[model.ObjectID]*partial),
		byMask:  make(map[uint64]*bucket),
		scratch: make([]model.Grade, m),

		syncBottoms: make([]model.Grade, m),
	}
	for i := range tb.bottoms {
		tb.bottoms[i] = 1 // x̄ᵢ = 1 before any sorted access
		tb.syncBottoms[i] = 1
	}
	return tb
}

// computeW evaluates W(p) (missing fields ← 0).
func (tb *table) computeW(p *partial) model.Grade {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = p.grades[j]
		} else {
			tb.scratch[j] = 0
		}
	}
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.scratch)
}

// computeB evaluates a fresh B(p) (missing fields ← current bottoms).
func (tb *table) computeB(p *partial) model.Grade {
	tb.src.CountBoundRecompute(1)
	return tb.evalB(p)
}

// evalB is computeB without the accounting.
func (tb *table) evalB(p *partial) model.Grade {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = p.grades[j]
		} else {
			tb.scratch[j] = tb.bottoms[j]
		}
	}
	return tb.t.Apply(tb.scratch)
}

// computeCap evaluates Uₛ = t(1 on mask, current bottoms off it), the
// largest B any object with known-field mask S can have.
func (tb *table) computeCap(mask uint64) model.Grade {
	for j := 0; j < tb.m; j++ {
		if mask&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = 1
		} else {
			tb.scratch[j] = tb.bottoms[j]
		}
	}
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.scratch)
}

// refreshB makes p's cached B fresh for the current bottoms.
func (tb *table) refreshB(p *partial) {
	if p.bAt != tb.clock {
		p.b = tb.computeB(p)
		p.bAt = tb.clock
		if invariantsEnabled {
			assertInvariant(p.w <= p.b, "object %d has W=%v > B=%v after refresh (Propositions 8.1/8.2)", p.obj, p.w, p.b)
		}
		if bk := p.bkt; bk != nil {
			heap.Fix(&bk.h, p.heapIdx)
			tb.rebound(bk)
		}
	}
}

// threshold evaluates τ = t(x̄₁,…,x̄ₘ), the B value of every unseen object.
func (tb *table) threshold() model.Grade {
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.bottoms)
}

// mk returns the current M_k, or -Inf while fewer than k objects are held.
func (tb *table) mk() model.Grade {
	if len(tb.topk) < tb.k {
		return model.Grade(math.Inf(-1))
	}
	return tb.topk[tb.k-1].w
}

// better reports whether a ranks strictly above b in the T_k order:
// larger W first, ties by larger B as of the latest stopping-rule check
// (syncB), then smaller id.
func (tb *table) better(a, b *partial) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	tb.syncB(a)
	tb.syncB(b)
	if a.b != b.b {
		return a.b > b.b
	}
	return a.obj < b.obj
}

// resortTopK restores the T_k order after a member's bounds changed.
func (tb *table) resortTopK() {
	s := tb.topk
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && tb.better(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// learn records that obj's grade in list is g, updating W, B and the top-k
// structures. It is called for both sorted and random discoveries.
func (tb *table) learn(obj model.ObjectID, list int, g model.Grade) *partial {
	p := tb.parts[obj]
	if p == nil {
		if len(tb.partSlab) == 0 {
			tb.partSlab = make([]partial, partSlabSize)
		}
		if len(tb.gradeSlab) < tb.m {
			tb.gradeSlab = make([]model.Grade, partSlabSize*tb.m)
		}
		p = &tb.partSlab[0]
		tb.partSlab = tb.partSlab[1:]
		*p = partial{
			obj:     obj,
			grades:  tb.gradeSlab[:tb.m:tb.m],
			heapIdx: -1,
			bAt:     -1,
		}
		tb.gradeSlab = tb.gradeSlab[tb.m:]
		tb.parts[obj] = p
	}
	bit := uint64(1) << uint(list)
	if p.known&bit != 0 {
		return p // already known; nothing changes
	}
	p.known |= bit
	p.nKnown++
	p.grades[list] = g
	p.w = tb.computeW(p)
	p.b = tb.computeB(p)
	p.bAt = tb.clock
	if invariantsEnabled {
		assertInvariant(p.w <= p.b, "object %d has W=%v > B=%v (Propositions 8.1/8.2)", p.obj, p.w, p.b)
	}

	if p.retired {
		// Proven non-viable: its grade can still be recorded (above)
		// but it can never re-enter contention (W ≤ B ≤ the M_k that
		// retired it ≤ current M_k).
		return p
	}
	if p.inTopK {
		tb.resortTopK()
		return p
	}
	// Try to promote p into T_k.
	if len(tb.topk) < tb.k {
		tb.removeCand(p)
		p.inTopK = true
		tb.topk = append(tb.topk, p)
		tb.resortTopK()
		return p
	}
	worst := tb.topk[tb.k-1]
	if tb.better(p, worst) {
		tb.removeCand(p)
		p.inTopK = true
		worst.inTopK = false
		tb.topk[tb.k-1] = p
		tb.resortTopK()
		if tb.lazy {
			tb.addCand(worst)
		}
		return p
	}
	if tb.lazy {
		// p's mask changed, so it moves to the new mask's bucket.
		tb.removeCand(p)
		tb.addCand(p)
	}
	return p
}

// addCand files p in the bucket of its known-field mask (lazy engine).
func (tb *table) addCand(p *partial) {
	bk := tb.byMask[p.known]
	if bk == nil {
		if n := len(tb.spare); n > 0 {
			bk = tb.spare[n-1]
			tb.spare = tb.spare[:n-1]
		} else {
			bk = &bucket{}
		}
		bk.mask = p.known
		bk.cap = model.Grade(math.Inf(1))
		bk.capAt = -1
		bk.bound = p.b
		tb.byMask[p.known] = bk
		heap.Push(&tb.buckets, bk)
	}
	heap.Push(&bk.h, p)
	p.bkt = bk
	tb.rebound(bk)
}

// removeCand takes p out of its bucket, if it is in one, and drops the
// bucket once it is empty.
func (tb *table) removeCand(p *partial) {
	bk := p.bkt
	if bk == nil {
		return
	}
	heap.Remove(&bk.h, p.heapIdx)
	p.bkt = nil
	if bk.h.Len() == 0 {
		tb.dropBucket(bk)
		return
	}
	tb.rebound(bk)
}

// rebound restores bk's bound and its place among the buckets after its
// top or cap changed.
func (tb *table) rebound(bk *bucket) {
	bk.bound = bk.h[0].b
	if bk.cap < bk.bound {
		bk.bound = bk.cap
	}
	heap.Fix(&tb.buckets, bk.idx)
}

// dropBucket removes an empty bucket and keeps it for reuse.
func (tb *table) dropBucket(bk *bucket) {
	heap.Remove(&tb.buckets, bk.idx)
	delete(tb.byMask, bk.mask)
	bk.hit = nil
	tb.spare = append(tb.spare, bk)
}

// retireBucket retires every member of bk — each one's fresh B is at most
// bk's bound, which is at most M_k — and drops the bucket.
func (tb *table) retireBucket(bk *bucket) {
	for i, p := range bk.h {
		p.retired = true
		p.bkt = nil
		p.heapIdx = -1
		bk.h[i] = nil
	}
	bk.h = bk.h[:0]
	tb.dropBucket(bk)
}

// observeSorted processes one sorted-access result on list i.
func (tb *table) observeSorted(i int, e model.Entry) {
	if invariantsEnabled {
		assertInvariant(tb.observed&(uint64(1)<<uint(i)) == 0 || e.Grade <= tb.bottoms[i],
			"sorted list %d produced increasing grades: %v after bottom %v", i, e.Grade, tb.bottoms[i])
		tb.observed |= uint64(1) << uint(i)
	}
	if e.Grade != tb.bottoms[i] {
		tb.bottoms[i] = e.Grade
		tb.clock++
	}
	tb.learn(e.Object, i, e.Grade)
}

// drainTop returns the viable candidate outside T_k with the largest fresh
// B (one of them, when several tie), or nil when no viable candidate
// remains. It searches the buckets best-first by bound: a bucket whose
// bound is ≤ M_k is retired whole (sound: B only decreases, M_k only
// increases); otherwise its stale cap or stale top is refreshed, until the
// best bucket's bound is exact — and therefore the largest fresh B of all.
// Lazy engine only.
func (tb *table) drainTop(mk model.Grade) *partial {
	c := tb.searchBuckets(mk)
	if invariantsEnabled && len(tb.parts) <= maxCheckedCands {
		tb.checkDrained(mk, c)
	}
	return c
}

// searchBuckets is drainTop's best-first search.
func (tb *table) searchBuckets(mk model.Grade) *partial {
	for len(tb.buckets) > 0 {
		bk := tb.buckets[0]
		if bk.bound <= mk {
			tb.retireBucket(bk)
			continue
		}
		if bk.capAt != tb.clock {
			bk.cap = tb.computeCap(bk.mask)
			bk.capAt = tb.clock
			bk.hit = nil
			tb.rebound(bk)
			continue
		}
		if h := bk.hit; h != nil && h.bkt == bk && h.bAt == tb.clock {
			return h
		}
		c := bk.h[0]
		if c.bAt == tb.clock || bk.mask == tb.full {
			// A fully known object's B is its exact grade at every clock.
			c.bAt = tb.clock
			return c
		}
		c.b = tb.computeB(c)
		c.bAt = tb.clock
		if invariantsEnabled {
			assertInvariant(c.b <= bk.cap, "object %d has B=%v above its mask's cap %v", c.obj, c.b, bk.cap)
		}
		if c.b >= bk.cap {
			bk.hit = c
		}
		heap.Fix(&bk.h, 0)
		tb.rebound(bk)
	}
	return nil
}

// maxCheckedCands bounds the table size up to which the invariants build
// cross-checks drainTop by brute force.
const maxCheckedCands = 4096

// checkDrained asserts that c's B is fresh and is the largest fresh B
// among the viable candidates outside T_k — c is nil exactly when none is
// above mk — and that no retired object is viable (invariants build).
func (tb *table) checkDrained(mk model.Grade, c *partial) {
	best := mk
	//lint:orderfree every part is visited exactly once and best is a pure reduction
	for _, p := range tb.parts {
		if p.inTopK {
			continue
		}
		b := tb.evalB(p)
		if p.retired {
			assertInvariant(b <= mk, "retired object %d has B=%v above M_k=%v", p.obj, b, mk)
		} else if b > best {
			best = b
		}
	}
	if c == nil {
		assertInvariant(best == mk, "drainTop found no viable candidate, but one has B=%v > M_k=%v", best, mk)
		return
	}
	assertInvariant(!c.inTopK && !c.retired && c.b == tb.evalB(c) && c.b == best,
		"drainTop returned object %d with B=%v, but the largest fresh outside B is %v", c.obj, c.b, best)
}

// resolveAll performs the random accesses for every missing field of p
// (one CA/Intermittent resolution, and CostAwareTA's final pinning step).
// A backend failure aborts the loop mid-object; the fields already resolved
// stay learned (bounds only tightened), and the error surfaces so the
// caller's death ceiling still covers the partially resolved object.
func (tb *table) resolveAll(p *partial) error {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			continue
		}
		g, ok, err := tb.src.RandomErr(j, p.obj)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		tb.learn(p.obj, j, g)
	}
	return nil
}

// randomPhase performs one CA Step-2 phase (Section 8.2): resolve by random
// access every missing field of the seen, viable object with the largest B,
// or do nothing if no such object exists (footnote 15's escape clause).
func (tb *table) randomPhase() error {
	if target := tb.pickPhaseTarget(); target != nil {
		return tb.resolveAll(target)
	}
	return nil
}

// maxBOutsideRescan recomputes B for every seen object (the paper's
// straightforward bookkeeping) and returns the largest B among objects
// outside T_k, or -Inf if none. Rescan engine only.
func (tb *table) maxBOutsideRescan() model.Grade {
	maxB := model.Grade(math.Inf(-1))
	//lint:orderfree every part is visited exactly once and maxB is a pure reduction
	for _, p := range tb.parts {
		p.b = tb.computeB(p)
		p.bAt = tb.clock
		if !p.inTopK && p.b > maxB {
			maxB = p.b
		}
	}
	// Bounds changed, so the tie-break order inside T_k may have too.
	tb.resortTopK()
	return maxB
}

// halted evaluates the Section 8.1 stopping rule: at least k objects seen,
// and no viable object — seen or unseen — outside T_k.
func (tb *table) halted() bool {
	if len(tb.topk) < tb.k {
		return false
	}
	mk := tb.mk()
	if len(tb.parts) < tb.src.N() {
		if tb.threshold() > mk {
			return false // an unseen object is still viable
		}
	}
	if tb.lazy {
		tb.syncTopK()
		return tb.drainTop(mk) == nil
	}
	return tb.maxBOutsideRescan() <= mk
}

// syncTopK stands in, in the lazy engine, for the rescan engine's full
// pass at a stopping-rule check. T_k breaks ties on W by cached B, and
// that pass refreshes every B and re-sorts T_k, so the lazy engine records
// the bottoms of the check and re-sorts T_k too; better brings a member's
// cached B up to those bottoms (syncB) only when it ties another on W.
// Both engines then hold the same T_k without the lazy one refreshing
// every member at every check. (A retired object the rescan engine might
// admit by id is pinned at W = B = M_k, the same pair as the member it
// would displace.)
func (tb *table) syncTopK() {
	if tb.syncAt != tb.clock {
		tb.syncAt = tb.clock
		copy(tb.syncBottoms, tb.bottoms)
	}
	tb.resortTopK()
}

// syncB sets p's cached B to its value at the latest stopping-rule check
// when it was computed before that check — the value the rescan engine
// holds there. It stays an upper bound: bottoms only fall. The rescan
// engine never records a check, so this is a no-op there.
func (tb *table) syncB(p *partial) {
	if p.bAt >= tb.syncAt {
		return
	}
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = p.grades[j]
		} else {
			tb.scratch[j] = tb.syncBottoms[j]
		}
	}
	tb.src.CountBoundRecompute(1)
	p.b = tb.t.Apply(tb.scratch)
	p.bAt = tb.syncAt
}

// result assembles the Result from the final T_k. GradesExact holds when
// every answer interval is pinned (B = W, so Grade is the true overall
// grade) — which can happen without every field being known, e.g. under
// min once a known field ties the bound; the sharded NRA coordinator uses
// the same interval-pinned definition, so sequential and sharded runs of
// one query agree on exactness.
func (tb *table) result(rounds int) *Result {
	items := make([]Scored, len(tb.topk))
	exact := true
	for i, p := range tb.topk {
		tb.refreshB(p)
		items[i] = Scored{Object: p.obj, Grade: p.w, Lower: p.w, Upper: p.b}
		if p.w != p.b {
			exact = false
		}
	}
	return &Result{
		Items:       items,
		GradesExact: exact,
		Theta:       1,
		Rounds:      rounds,
		Stats:       tb.src.Stats(),
	}
}
