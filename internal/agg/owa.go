package agg

import (
	"fmt"

	"repro/internal/model"
)

// OWA returns an ordered weighted averaging operator (Yager), a standard
// family in the fuzzy-aggregation literature the paper builds on: the
// grades are sorted descending and combined as Σ wᵢ·x₍ᵢ₎ with Σwᵢ = 1.
// OWA generalizes the paper's running examples —
//
//	weights (0,…,0,1)  = min
//	weights (1,0,…,0)  = max
//	weights (1/m,…,1/m) = average
//	a 1 at the middle position = median
//
// Every OWA operator is monotone and strictly monotone (raising every
// coordinate strictly raises every order statistic, hence the weighted
// sum). It is strict exactly when the last weight — the one applied to the
// minimum — is positive, and it is not strictly monotone in each argument
// (raising one coordinate can leave all weighted order statistics fixed
// when its weight position is zero).
func OWA(weights []float64) Func {
	if len(weights) == 0 {
		panic("agg: OWA needs at least one weight")
	}
	ws := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic("agg: OWA weights must be non-negative")
		}
		ws[i] = w
		sum += w
	}
	if sum <= 0 {
		panic("agg: OWA weights must not all be zero")
	}
	for i := range ws {
		ws[i] /= sum
	}
	m := len(ws)
	return &props{
		name:   fmt.Sprintf("owa%d", m),
		arity:  m,
		strict: ws[m-1] > 0,
		sm:     true,
		smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			// Walk the grades in rank order — descending, equal grades by
			// index, so grade i has rank #{j: gⱼ > gᵢ} + #{j < i: gⱼ = gᵢ} —
			// by selecting each rank's grade in turn: O(m²) comparisons,
			// no allocation, and the same summation order as a sort.
			var v model.Grade
			prev := -1
			for r := range gs {
				next := -1
				for j, g := range gs {
					if prev >= 0 && !(g < gs[prev] || g == gs[prev] && j > prev) {
						continue // ranked at or before prev
					}
					if next < 0 || g > gs[next] {
						next = j
					}
				}
				v += model.Grade(ws[r]) * gs[next]
				prev = next
			}
			return v
		},
	}
}
