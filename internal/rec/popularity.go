package rec

// PopularityDamping is K in the damped-mean formula of popularityScores.
const PopularityDamping = 5.0

// popularityScores builds the non-personalized model (§II class 1): every
// item's damped mean rating,
//
//	score(i) = (Σ ratings(i) + K × globalMean) / (count(i) + K)
//
// where the damping constant K pulls sparsely rated items toward the
// global mean, the standard "true Bayesian estimate" used by e.g. IMDb's
// Top-250 chart. The same score is returned for every user. Every sum is
// added in run order — the global one over the users' runs, an item's over
// its run — so equal ratings build equal bits in any input order.
func popularityScores(ix *ratingsIndex) map[int64]float64 {
	scores := make(map[int64]float64, len(ix.items))
	var globalMean float64
	if ix.n > 0 {
		var sum float64
		for _, r := range ix.byUser.rows {
			sum += r.Sim
		}
		globalMean = sum / float64(ix.n)
	}
	for p, i := range ix.items {
		var itemSum float64
		raters := ix.byItem.run(p)
		for _, r := range raters {
			itemSum += r.Sim
		}
		scores[i] = (itemSum + PopularityDamping*globalMean) /
			(float64(len(raters)) + PopularityDamping)
	}
	return scores
}
