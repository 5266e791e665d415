package dataset

import (
	"fmt"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/geo"
	"recdb/internal/rec"
)

func TestSpecShapes(t *testing.T) {
	cases := []struct {
		spec    Spec
		users   int
		items   int
		ratings int
	}{
		{MovieLens, 943, 1682, 100000},
		{LDOS, 185, 785, 2297},
		{Yelp, 3403, 1446, 126747},
	}
	for _, c := range cases {
		if c.spec.Users != c.users || c.spec.Items != c.items || c.spec.Ratings != c.ratings {
			t.Errorf("%s shape: %+v", c.spec.Name, c.spec)
		}
	}
}

func TestGenerateLDOSFullShape(t *testing.T) {
	d := Generate(LDOS)
	if len(d.Users) != 185 || len(d.Items) != 785 || len(d.Ratings) != 2297 {
		t.Fatalf("LDOS shape: %s", d.Describe())
	}
	// Ratings reference valid ids and values in 1..5; pairs unique.
	seen := map[[2]int64]bool{}
	for _, r := range d.Ratings {
		if r.User < 1 || r.User > 185 || r.Item < 1 || r.Item > 785 {
			t.Fatalf("rating out of range: %+v", r)
		}
		if r.Value < 1 || r.Value > 5 {
			t.Fatalf("rating value out of scale: %+v", r)
		}
		key := [2]int64{r.User, r.Item}
		if seen[key] {
			t.Fatalf("duplicate rating pair: %+v", r)
		}
		seen[key] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(LDOS)
	b := Generate(LDOS)
	if len(a.Ratings) != len(b.Ratings) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a.Ratings {
		if a.Ratings[i] != b.Ratings[i] {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, a.Ratings[i], b.Ratings[i])
		}
	}
	if a.Users[0] != b.Users[0] || a.Items[0] != b.Items[0] {
		t.Fatal("non-deterministic metadata")
	}
}

func TestGenerateGeo(t *testing.T) {
	d := Generate(Yelp.Scaled(0.05))
	if len(d.Cities) == 0 {
		t.Fatal("geo dataset needs cities")
	}
	for _, it := range d.Items {
		placed := false
		for _, c := range d.Cities {
			if c.Name == it.City {
				if !geo.Contains(c.Area, it.Loc) {
					t.Fatalf("item %d outside its city %s: %v", it.ID, it.City, it.Loc)
				}
				placed = true
			}
		}
		if !placed {
			t.Fatalf("item %d has unknown city %q", it.ID, it.City)
		}
	}
}

func TestScaled(t *testing.T) {
	s := MovieLens.Scaled(0.1)
	if s.Users != 94 || s.Items != 168 || s.Ratings != 1000 {
		t.Fatalf("scaled: %+v", s)
	}
	// Density is preserved (both ≈ 6.3%).
	full := float64(MovieLens.Ratings) / float64(MovieLens.Users*MovieLens.Items)
	scaled := float64(s.Ratings) / float64(s.Users*s.Items)
	if scaled < full*0.8 || scaled > full*1.2 {
		t.Fatalf("density drifted: full=%.4f scaled=%.4f", full, scaled)
	}
	tiny := MovieLens.Scaled(0.0001)
	if tiny.Users < 2 || tiny.Items < 2 || tiny.Ratings < 1 {
		t.Fatalf("scaled floor: %+v", tiny)
	}
}

func TestRatingsHaveLearnableStructure(t *testing.T) {
	// An SVD trained on the generated data should beat the global-mean
	// predictor on held-out ratings — i.e. the data is not pure noise.
	d := Generate(MovieLens.Scaled(0.3))
	split := len(d.Ratings) * 9 / 10
	train, test := d.Ratings[:split], d.Ratings[split:]
	m, err := rec.Build(train, rec.SVD, rec.BuildOptions{SVDFactors: 8, SVDEpochs: 120, SVDRate: 0.02, SVDSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, r := range train {
		mean += r.Value
	}
	mean /= float64(len(train))
	var seSVD, seMean float64
	var n int
	for _, r := range test {
		p, ok := m.Predict(r.User, r.Item)
		if !ok {
			continue
		}
		seSVD += (p - r.Value) * (p - r.Value)
		seMean += (mean - r.Value) * (mean - r.Value)
		n++
	}
	if n < 20 {
		t.Skipf("too few scorable held-out ratings: %d", n)
	}
	if seSVD >= seMean {
		t.Fatalf("SVD (%.3f) does not beat global mean (%.3f) on %d held-out ratings",
			seSVD/float64(n), seMean/float64(n), n)
	}
}

func TestLoadIntoEngine(t *testing.T) {
	e := engine.New(engine.Config{})
	d := Generate(Yelp.Scaled(0.02))
	if err := Load(e, d); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("SELECT * FROM ratings")
	if err != nil || len(q.Rows) != len(d.Ratings) {
		t.Fatalf("ratings loaded: %d, %v", len(q.Rows), err)
	}
	q, err = e.Query("SELECT * FROM users")
	if err != nil || len(q.Rows) != len(d.Users) {
		t.Fatalf("users loaded: %d, %v", len(q.Rows), err)
	}
	// Spatial predicate works against loaded geometry.
	q, err = e.Query(`SELECT i.name FROM items i, cities c
		WHERE c.name = 'San Diego' AND ST_Contains(c.geom, i.geom)`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, it := range d.Items {
		if it.City == "San Diego" {
			want++
		}
	}
	if len(q.Rows) != want {
		t.Fatalf("spatial filter: %d rows, want %d", len(q.Rows), want)
	}
	// Recommender builds over the loaded data end to end.
	if _, err := e.Exec(`CREATE RECOMMENDER YelpRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`); err != nil {
		t.Fatal(err)
	}
	// Scaling shrinks the user×item grid faster than the rating count, so
	// tiny datasets are dense; pick a user who still has unseen items.
	rated := map[int64]int{}
	for _, r := range d.Ratings {
		rated[r.User]++
	}
	queryUser := int64(-1)
	for _, u := range d.Users {
		if n := rated[u.ID]; n > 0 && n < len(d.Items) {
			queryUser = u.ID
			break
		}
	}
	if queryUser < 0 {
		t.Fatal("no user with unseen items in fixture")
	}
	q, err = e.Query(fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT 5`, queryUser))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) == 0 {
		t.Fatal("recommendation over loaded dataset returned nothing")
	}
}
