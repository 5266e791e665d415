package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"recdb/internal/dataset"
	"recdb/internal/rec"
	"recdb/internal/shard"
)

const (
	// insertBase is the first item id the benchmark's own INSERTs use:
	// above every seeded item, so a lookup can tell seeded rows from
	// inserted ones.
	insertBase = 1_000_000
	// seedBatch is the row count of one seeding INSERT: large enough that
	// every batch spans both shards and the router has to split it.
	seedBatch = 200
	// topK is the LIMIT of every recommend statement.
	topK = 10
	// allowedItems is the length of the pushed-down iid IN (...) list.
	allowedItems = 32
)

// data is the rating set and what the checks need to know about it. It
// is a constant of the benchmark, like its scale: internal/dataset's
// MovieLens stand-in under the generator seed that package fixes. Seeding
// the data set too moved recommend.scan by a quarter between seeds (the
// ItemCosCF model's size depends on which heavy users and items a draw
// happens to produce), which is the data's variance and not the system's;
// the op streams are what derive from -seed.
type data struct {
	spec    dataset.Spec
	ratings []rec.Rating
	users   []int64                  // users with at least one rating, ascending
	rated   map[int64]map[int64]bool // user -> seeded items
	ring    *shard.Ring
}

// generate builds the MovieLens-shaped rating set at the given scale.
func generate(scale float64) (*data, error) {
	spec := dataset.MovieLens.Scaled(scale)
	ring, err := shard.NewRing(shardCount)
	if err != nil {
		return nil, err
	}
	d := &data{spec: spec, ratings: dataset.Generate(spec).Ratings, rated: map[int64]map[int64]bool{}, ring: ring}
	for _, r := range d.ratings {
		if d.rated[r.User] == nil {
			d.rated[r.User] = map[int64]bool{}
			d.users = append(d.users, r.User)
		}
		d.rated[r.User][r.Item] = true
	}
	sort.Slice(d.users, func(i, j int) bool { return d.users[i] < d.users[j] })
	return d, nil
}

// seededOn counts the seeded ratings whose user the ring places on shard.
func (d *data) seededOn(shard int) int {
	n := 0
	for _, r := range d.ratings {
		if d.ring.Owner(r.User) == shard {
			n++
		}
	}
	return n
}

// script is the seeding script: schema, the ratings in multi-row
// batches, the user index, then both recommenders (built after the data
// lands, so each shard trains once on its whole partition). With only
// set, the batches keep just the rows that shard owns — what the router's
// INSERT split delivers to it — so an embedded database fed this script
// is a replica of that shard. Without recommenders the script stops at
// the index.
func (d *data) script(only *int, recommenders bool) []string {
	out := []string{`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`}
	for lo := 0; lo < len(d.ratings); lo += seedBatch {
		var sb strings.Builder
		for _, r := range d.ratings[lo:min(lo+seedBatch, len(d.ratings))] {
			if only != nil && d.ring.Owner(r.User) != *only {
				continue
			}
			if sb.Len() == 0 {
				sb.WriteString("INSERT INTO ratings VALUES ")
			} else {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %.1f)", r.User, r.Item, r.Value)
		}
		if sb.Len() > 0 {
			out = append(out, sb.String())
		}
	}
	out = append(out, `CREATE INDEX ratings_uid ON ratings (uid)`)
	if !recommenders {
		return out
	}
	return append(out,
		`CREATE RECOMMENDER BenchCos ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`,
		`CREATE RECOMMENDER BenchSVD ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`,
	)
}

// opKind is the statement shape of one operation.
type opKind int

const (
	opLookup opKind = iota
	opScan
	opVector
	opInsert
)

// op is one generated statement and what its answer must look like.
type op struct {
	kind    opKind
	user    int64
	item    int64   // opInsert: the fresh item id
	allowed []int64 // opVector: the pushed-down iid list (nil = none)
	sql     string
}

func (o op) write() bool { return o.kind == opInsert }

// strategy is the planner strategy the statement must be answered with.
func (o op) strategy() string {
	switch o.kind {
	case opScan:
		return "FilterRecommend"
	case opVector:
		return "VectorRecommend"
	}
	return ""
}

func lookupOp(user int64) op {
	return op{kind: opLookup, user: user,
		sql: fmt.Sprintf(`SELECT iid, ratingval FROM ratings WHERE uid = %d`, user)}
}

func recommendSQL(algo string, user int64, where string) string {
	return fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING %s WHERE R.uid = %d%s ORDER BY R.ratingval DESC`, algo, user, where)
}

func scanOp(user int64) op {
	return op{kind: opScan, user: user,
		sql: fmt.Sprintf("%s LIMIT %d", recommendSQL("ItemCosCF", user, ""), topK)}
}

func vectorOp(user int64, allowed []int64) op {
	where := ""
	if allowed != nil {
		ids := make([]string, len(allowed))
		for i, it := range allowed {
			ids[i] = fmt.Sprint(it)
		}
		where = " AND R.iid IN (" + strings.Join(ids, ", ") + ")"
	}
	return op{kind: opVector, user: user, allowed: allowed,
		sql: fmt.Sprintf("%s LIMIT %d", recommendSQL("SVD", user, where), topK)}
}

func insertOp(user, item int64) op {
	return op{kind: opInsert, user: user, item: item,
		sql: fmt.Sprintf(`INSERT INTO ratings VALUES (%d, %d, 3.0)`, user, item)}
}

// workload is one named traffic mix.
type workload struct {
	name string
	// strategy is the planner strategy of the workload's reads ("" for
	// plain lookups), as the shards' plan.* counters name it.
	strategy string
	// next generates the i-th op of a stream. lane and lanes make the
	// fresh item ids of concurrent streams disjoint.
	next func(d *data, rnd *rand.Rand, i int, lane, lanes int64) op
}

func (d *data) randomUser(rnd *rand.Rand) int64 { return d.users[rnd.Intn(len(d.users))] }

// unratedItems draws n distinct catalogue items the user has not rated,
// so a top-10 restricted to them still has ten candidates.
func (d *data) unratedItems(rnd *rand.Rand, user int64, n int) []int64 {
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	for len(out) < n {
		it := int64(1 + rnd.Intn(d.spec.Items))
		if !seen[it] && !d.rated[user][it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

// workloads lists the benchmark's traffic mixes in ledger order.
var workloads = []workload{
	{
		name: "lookup.routed",
		// Indexed point lookups: ~50us of engine work, so router, wire and session hops carry the latency.
		next: func(d *data, rnd *rand.Rand, _ int, _, _ int64) op { return lookupOp(d.randomUser(rnd)) },
	},
	{
		name: "recommend.scan",
		// Un-materialised ItemCosCF top-10 (FilterRecommend): scoring dominates, the serving hop is noise.
		strategy: "FilterRecommend",
		next:     func(d *data, rnd *rand.Rand, _ int, _, _ int64) op { return scanOp(d.randomUser(rnd)) },
	},
	{
		name: "recommend.vector",
		// SVD top-10 through the IVF index, a quarter with a 32-item IN list: ann probing and the hop are comparable.
		strategy: "VectorRecommend",
		next: func(d *data, rnd *rand.Rand, i int, _, _ int64) op {
			user := d.randomUser(rnd)
			if i%4 == 3 {
				return vectorOp(user, d.unratedItems(rnd, user, allowedItems))
			}
			return vectorOp(user, nil)
		},
	},
	{
		name: "ratings.mixed",
		// 80% point lookups, 20% durable single-row INSERTs: WAL fsync, write gates and model rebuilds beside reads.
		next: func(d *data, rnd *rand.Rand, i int, lane, lanes int64) op {
			user := d.randomUser(rnd)
			if i%5 == 4 {
				return insertOp(user, insertBase+int64(i/5)*lanes+lane)
			}
			return lookupOp(user)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stream returns the op generator of one client of a workload: a pure
// function of (seed, workload, lane).
func (w workload) stream(d *data, seed int64, lane, lanes int64) func() op {
	h := fnv.New32a()
	_, _ = h.Write([]byte(w.name)) // a hash.Hash never fails to write
	rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum32())*1_009 + lane))
	i := 0
	return func() op {
		o := w.next(d, rnd, i, lane, lanes)
		i++
		return o
	}
}

// check verifies an answer. An INSERT affected one row. A read was
// planned with the expected strategy; a lookup holds every seeded rating
// of the user and nothing else seeded; a top-k holds exactly topK rows in
// descending score order, none already rated by the user and all inside
// the pushed-down list.
func (d *data) check(o op, a answer) error {
	if o.write() {
		if a.affected != 1 {
			return fmt.Errorf("insert uid=%d: %d rows affected", o.user, a.affected)
		}
		return nil
	}
	if a.strategy != o.strategy() {
		return fmt.Errorf("strategy %q, want %q", a.strategy, o.strategy())
	}
	rows := a.rows
	if o.kind == opLookup {
		seeded := 0
		for _, r := range rows {
			item, ok := r[0].AsInt()
			if !ok {
				return fmt.Errorf("lookup uid=%d: iid is %v", o.user, r[0])
			}
			if item < insertBase {
				if !d.rated[o.user][item] {
					return fmt.Errorf("lookup uid=%d: item %d was never rated", o.user, item)
				}
				seeded++
			}
		}
		if seeded != len(d.rated[o.user]) {
			return fmt.Errorf("lookup uid=%d: %d seeded ratings, want %d", o.user, seeded, len(d.rated[o.user]))
		}
		return nil
	}
	if len(rows) != topK {
		return fmt.Errorf("top-%d uid=%d: %d rows", topK, o.user, len(rows))
	}
	var allowed map[int64]bool
	if o.allowed != nil {
		allowed = make(map[int64]bool, len(o.allowed))
		for _, it := range o.allowed {
			allowed[it] = true
		}
	}
	prev := 0.0
	for i, r := range rows {
		item, okI := r[0].AsInt()
		score, okS := r[1].AsFloat()
		switch {
		case !okI || !okS:
			return fmt.Errorf("top-%d uid=%d: row %v", topK, o.user, r)
		case i > 0 && score > prev:
			return fmt.Errorf("top-%d uid=%d: scores not descending at row %d", topK, o.user, i)
		case d.rated[o.user][item]:
			return fmt.Errorf("top-%d uid=%d: item %d already rated", topK, o.user, item)
		case allowed != nil && !allowed[item]:
			return fmt.Errorf("top-%d uid=%d: item %d outside the IN list", topK, o.user, item)
		}
		prev = score
	}
	return nil
}
