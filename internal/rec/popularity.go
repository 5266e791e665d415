package rec

import "sort"

// PopularityModel is the non-personalized model (§II class 1): it scores
// every item by its damped mean rating,
//
//	score(i) = (Σ ratings(i) + K × globalMean) / (count(i) + K)
//
// where the damping constant K pulls sparsely rated items toward the
// global mean, the standard "true Bayesian estimate" used by e.g. IMDb's
// Top-250 chart. The same score is returned for every user.
type PopularityModel struct {
	*ratingsIndex
	scores     map[int64]float64
	globalMean float64
}

// PopularityDamping is K in the damped-mean formula.
const PopularityDamping = 5.0

// BuildPopularity computes the damped mean score for every item. Every sum
// is added in run order — the global one over the users' runs, an item's
// over its run — so equal ratings build equal bits in any input order.
func BuildPopularity(ratings []Rating) *PopularityModel {
	ix := indexRatings(ratings)
	m := &PopularityModel{ratingsIndex: ix, scores: make(map[int64]float64, len(ix.items))}
	if ix.n > 0 {
		var sum float64
		for _, r := range ix.byUser.rows {
			sum += r.Sim
		}
		m.globalMean = sum / float64(ix.n)
	}
	for p, i := range ix.items {
		var itemSum float64
		raters := ix.byItem.run(p)
		for _, r := range raters {
			itemSum += r.Sim
		}
		m.scores[i] = (itemSum + PopularityDamping*m.globalMean) /
			(float64(len(raters)) + PopularityDamping)
	}
	return m
}

// Algorithm implements Model.
func (m *PopularityModel) Algorithm() Algorithm { return Popularity }

// Predict implements Model: the item's damped mean, independent of user.
// Unknown users still get predictions (the cold-start property), unknown
// items do not.
func (m *PopularityModel) Predict(user, item int64) (float64, bool) {
	s, ok := m.scores[item]
	return s, ok
}

// GlobalMean returns the mean of all training ratings.
func (m *PopularityModel) GlobalMean() float64 { return m.globalMean }

// Score returns the damped mean for one item.
func (m *PopularityModel) Score(item int64) (float64, bool) {
	s, ok := m.scores[item]
	return s, ok
}

// Ranking returns all items sorted by descending score (ties by id).
func (m *PopularityModel) Ranking() []int64 {
	out := append([]int64(nil), m.items...)
	sort.Slice(out, func(a, b int) bool {
		sa, sb := m.scores[out[a]], m.scores[out[b]]
		if sa != sb {
			return sa > sb
		}
		return out[a] < out[b]
	})
	return out
}
