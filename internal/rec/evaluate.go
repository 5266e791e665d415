package rec

import "math"

// Evaluation summarizes prediction accuracy over a held-out rating set,
// the standard offline metrics (RMSE/MAE) of the recommender-systems
// literature the paper builds on. The paper itself scopes accuracy out
// ("RECDB does not introduce a novel recommendation model with higher
// accuracy"); this utility exists so users can sanity-check a recommender
// and compare algorithm configurations.
type Evaluation struct {
	// RMSE is the root mean squared error over scorable pairs.
	RMSE float64
	// MAE is the mean absolute error over scorable pairs.
	MAE float64
	// Scorable counts test ratings the model could predict.
	Scorable int
	// Unscorable counts test ratings with no prediction basis (cold
	// users/items or empty neighborhoods).
	Unscorable int
}

// Evaluate scores model against test ratings. Pairs the model cannot
// predict are counted in Unscorable and excluded from the error metrics.
func Evaluate(model *ModelStore, test []Rating) Evaluation {
	var ev Evaluation
	var se, ae float64
	for _, r := range test {
		p, ok := model.Predict(r.User, r.Item)
		if !ok {
			ev.Unscorable++
			continue
		}
		d := p - r.Value
		se += d * d
		ae += math.Abs(d)
		ev.Scorable++
	}
	if ev.Scorable > 0 {
		ev.RMSE = math.Sqrt(se / float64(ev.Scorable))
		ev.MAE = ae / float64(ev.Scorable)
	}
	return ev
}

// SplitRatings partitions ratings into train/test deterministically: every
// k-th rating (by position) is held out. k < 2 holds out nothing.
func SplitRatings(ratings []Rating, k int) (train, test []Rating) {
	if k < 2 {
		return ratings, nil
	}
	train = make([]Rating, 0, len(ratings))
	test = make([]Rating, 0, len(ratings)/k+1)
	for i, r := range ratings {
		if i%k == k-1 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	return train, test
}
