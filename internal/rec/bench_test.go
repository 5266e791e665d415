package rec

import "testing"

func benchRatings(users, items int, density float64) []Rating {
	rng := newDeterministicRand(99)
	var out []Rating
	mod := int64(1 / density)
	if mod < 1 {
		mod = 1
	}
	for u := int64(1); u <= int64(users); u++ {
		for i := int64(1); i <= int64(items); i++ {
			if rng.next()%mod == 0 {
				out = append(out, Rating{u, i, float64(1 + rng.next()%5)})
			}
		}
	}
	return out
}

func BenchmarkBuildItemCosCF(b *testing.B) {
	ratings := benchRatings(200, 400, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ratings, ItemCosCF, BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainSVD(b *testing.B) {
	ratings := benchRatings(200, 400, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ratings, SVD, BuildOptions{SVDSeed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictItemCF(b *testing.B) {
	ratings := benchRatings(200, 400, 0.06)
	m := mustBuild(b, ratings, ItemCosCF, BuildOptions{})
	users := m.UserIDs()
	items := m.ItemIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(users[i%len(users)], items[i%len(items)])
	}
}

// withFreshItems appends fresh items to ratings, each rated once, at 3.0,
// by one of users 1..users — how ratings.mixed grows the ratings table
// between two model rebuilds.
func withFreshItems(ratings []Rating, users, fresh int) []Rating {
	rng := newDeterministicRand(5)
	for k := 0; k < fresh; k++ {
		ratings = append(ratings, Rating{User: 1 + rng.next()%int64(users), Item: 1_000_000 + int64(k), Value: 3})
	}
	return ratings
}

// BenchmarkRebuildCrossing times the stages of one §III-A model rebuild at
// the end-of-window shape of a ratings.mixed shard — the seed ratings of
// one shard of the benchmark ledger (~1 900 ratings, 94 users x 336 items)
// plus ~6 000 fresh items rated once each — for the two recommenders the
// ledger creates: the ItemCosCF build and the SVD training with its IVF
// index.
func BenchmarkRebuildCrossing(b *testing.B) {
	ratings := withFreshItems(benchRatings(94, 336, 0.06), 94, 6000)
	opts := BuildOptions{SVDSeed: 1}
	for _, stage := range []struct {
		name string
		run  func() error
	}{
		{"BuildNeighborhood", func() error { _, err := Build(ratings, ItemCosCF, opts); return err }},
		{"TrainSVD", func() error { _, err := Build(ratings, SVD, opts); return err }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := stage.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
