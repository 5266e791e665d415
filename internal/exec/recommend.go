package exec

import (
	"cmp"
	"fmt"
	"slices"

	"recdb/internal/ann"
	"recdb/internal/expr"
	"recdb/internal/metrics"
	"recdb/internal/rec"
	"recdb/internal/recindex"
	"recdb/internal/types"
)

// RecSchema builds the output schema of a RECOMMEND operator: the
// (user, item, rating) columns named in the clause, visible under the
// ratings table's alias.
func RecSchema(qualifier, userCol, itemCol, ratingCol string) *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: qualifier, Name: userCol, Kind: types.KindInt},
		types.Column{Qualifier: qualifier, Name: itemCol, Kind: types.KindInt},
		types.Column{Qualifier: qualifier, Name: ratingCol, Kind: types.KindFloat},
	)
}

// Source names where a RECOMMEND operator's candidate items come from —
// the only thing the paper's §IV operators differ in. SourceAuto is the
// planner's "let the policy choose"; an operator never reports it.
type Source int

const (
	SourceAuto    Source = iota
	SourceScan           // every model item (RECOMMEND, Algorithms 1-2)
	SourceList           // a pushed-down iid list, in predicate order (FILTERRECOMMEND)
	SourceOuter          // the item ids of an item-joined relation (JOINRECOMMEND)
	SourceRecTree        // a user's pre-computed RecTree (INDEXRECOMMEND, Algorithm 3)
	SourceIVF            // an IVF probe over SVD item factors (VECTORRECOMMEND)
)

func (s Source) String() string {
	return [...]string{"auto", "scan", "list", "outer", "rectree", "ivf"}[s]
}

// VectorMetrics is the instrument set the IVF source records into. Every
// field may be nil (the zero value records nothing), per the
// internal/metrics contract.
type VectorMetrics struct {
	// ProbedCentroids counts posting lists probed across all users/queries.
	ProbedCentroids *metrics.Counter
	// Candidates counts candidate items gathered and exactly re-ranked.
	Candidates *metrics.Counter
	// ExactFallbacks counts queries whose filtered candidate universe was
	// at most exactFallbackMax items, served by a direct scan of it.
	ExactFallbacks *metrics.Counter
	// Widenings counts probe-width growths forced by predicates eating the
	// candidate set (over-fetch + recheck).
	Widenings *metrics.Counter
}

// Recommend is the one RECOMMEND operator (§IV). Every variant of the
// paper is the same pipeline — pick candidate items for a user, score each
// against the user, apply the rating predicate, emit — and differs only in
// the candidate source, which follows from the fields the planner sets:
//
//	Index   the user's RecTree, scores pre-computed (INDEXRECOMMEND)
//	IVF     an IVF probe over SVD item factors (VECTORRECOMMEND)
//	Outer   the item ids of a joined relation (JOINRECOMMEND)
//	Items   a pushed-down iid list (FILTERRECOMMEND)
//	none    every model item (RECOMMEND, Algorithms 1-2)
//
// Items and Outer compose with Index and IVF as the item filter. Whatever
// the source, candidates run through one tail: skip (or, with IncludeSeen,
// report) already-rated pairs, score, apply RatingPred, join the outer
// rows, and — when K is set — keep only each user's K best.
//
// Rows emit user by user, in source order within a user; with K set, in
// descending score with ties in source order, which is exactly what a
// stable Sort on the rating followed by a Limit K would leave of the
// user's rows. The scan, list and outer sources stream, though a user the
// scorer takes user-driven has every score computed before its first row;
// the RecTree and IVF sources, and any source under K, produce a user's
// rows at once.
type Recommend struct {
	Store *rec.ModelStore
	// Users restricts the user loop (nil = all model users); the RecTree
	// and IVF sources require an explicit list.
	Users []int64
	// Items is the pushed-down item-id list, in predicate order (nil = no
	// restriction; empty = no item matches).
	Items []int64
	// Outer, when set, is the item-joined relation (e.g. σ_genre(Movies)),
	// materialized once in Open; OuterItemCol is the join column's
	// position in it. Rows emit as 〈uid, iid, ratingval〉 ++ outer tuple.
	Outer        Operator
	OuterItemCol int
	// Index, when set, serves candidates from the RecScoreIndex.
	Index *recindex.Index
	// MaxScore, when non-nil, starts the RecTree traversal at a pushed-down
	// "ratingval <= x" bound (Phase II of Algorithm 3).
	MaxScore *float64
	// IVF, when set, serves candidates by probing the vector index; it
	// requires K. NProbe is the initial probe width (0 = the index
	// default; the number of centroids or more = full probe, whose output
	// is byte-identical to the scan source's).
	IVF    *ann.Index
	NProbe int
	// RatingPred, when set, filters rows by predicted value; it is
	// evaluated on the bare 〈uid, iid, ratingval〉 row.
	RatingPred expr.Compiled
	// K, when positive, is the per-user row target (LIMIT + OFFSET of an
	// ORDER BY ratingval DESC the planner proved nothing else filters).
	K int64
	// IncludeSeen controls whether already-rated pairs are emitted (with
	// their actual rating, per Algorithm 1). Top-k recommendation queries
	// exclude them.
	IncludeSeen bool
	// Metrics receives IVF probe instrumentation.
	Metrics VectorMetrics

	// Run stats, populated while executing and rendered by EXPLAIN
	// ANALYZE; they survive Close. Scored counts the users the scorer
	// loaded, UserDriven those of them it scored from the user's side; the
	// rest are IVF stats.
	Scored     int
	UserDriven int
	Probed     int
	Candidates int
	Mode       string // "probe", "exact", or "exact-fallback"

	recSchema *types.Schema

	users     []int64
	src       source
	scorer    *rec.Scorer // nil under the RecTree source, whose entries are unseen and scored
	outerRows map[int64][]types.Row

	ui     int
	user   int64
	active bool // src is part-way through user
	out    []types.Row
	pos    int
	top    []ranked // K > 0: min-heap of the user's best rows, worst at the root
	seq    int
}

// NewRecommend creates a RECOMMEND operator over the bare rec schema,
// scanning every model item; set fields before Open to restrict it or to
// switch its candidate source.
func NewRecommend(store *rec.ModelStore, recSchema *types.Schema) *Recommend {
	return &Recommend{Store: store, recSchema: recSchema, IncludeSeen: true}
}

// Source reports the operator's candidate source.
func (r *Recommend) Source() Source {
	switch {
	case r.Index != nil:
		return SourceRecTree
	case r.IVF != nil:
		return SourceIVF
	case r.Outer != nil:
		return SourceOuter
	case r.Items != nil:
		return SourceList
	}
	return SourceScan
}

// Strategy names the paper operator this configuration corresponds to.
func (r *Recommend) Strategy() string {
	switch r.Source() {
	case SourceRecTree:
		return "IndexRecommend"
	case SourceIVF:
		return "VectorRecommend"
	case SourceOuter:
		return "JoinRecommend"
	}
	if r.Users != nil || r.Items != nil || r.RatingPred != nil {
		return "FilterRecommend"
	}
	return "Recommend"
}

// EffectiveNProbe reports the probe width the IVF source starts from.
func (r *Recommend) EffectiveNProbe() int {
	n := r.NProbe
	if n <= 0 {
		n = r.IVF.DefaultNProbe()
	}
	return min(n, r.IVF.NumCentroids())
}

// Schema implements Operator.
func (r *Recommend) Schema() *types.Schema {
	if r.Outer != nil {
		return r.recSchema.Concat(r.Outer.Schema())
	}
	return r.recSchema
}

// Open implements Operator.
func (r *Recommend) Open() error {
	r.ui, r.active, r.out, r.pos = 0, false, r.out[:0], 0
	r.Scored, r.UserDriven, r.Probed, r.Candidates, r.Mode = 0, 0, 0, 0, ""
	r.outerRows, r.scorer = nil, nil
	if r.users = r.Users; r.users == nil {
		if r.Index != nil || r.IVF != nil {
			return fmt.Errorf("exec: %s requires a user predicate", r.Strategy())
		}
		r.users = r.Store.UserIDs()
	}
	restrict := r.Items
	if r.Outer != nil {
		var err error
		if restrict, err = r.materializeOuter(); err != nil {
			return err
		}
	}
	switch {
	case r.Index != nil:
		r.src = recTreeSource{allowed: idSet(restrict)}
		return nil
	case r.IVF != nil:
		if r.K <= 0 {
			return fmt.Errorf("exec: VectorRecommend requires a positive row target")
		}
		r.src = newIVFSource(r, restrict)
	default:
		if restrict == nil {
			restrict = r.Store.ItemIDs()
		}
		r.src = &itemCursor{items: restrict}
	}
	r.scorer = r.Store.Scorer(len(restrict))
	return nil
}

// materializeOuter drains the outer relation once, grouping its rows by
// item id, and returns the distinct item ids in outer order. Items unknown
// to the model are dropped (models never emit items they have no ratings
// for), as are items outside the pushed-down list.
func (r *Recommend) materializeOuter() ([]int64, error) {
	if err := r.Outer.Open(); err != nil {
		return nil, err
	}
	listed := idSet(r.Items)
	r.outerRows = make(map[int64][]types.Row)
	items := []int64{} // never nil: an empty outer side means no candidates
	for {
		row, ok, err := r.Outer.Next()
		if err != nil || !ok {
			return items, err
		}
		item, isInt := row[r.OuterItemCol].AsInt()
		if !isInt || !r.Store.HasItem(item) || (listed != nil && !listed[item]) {
			continue // NULL or non-numeric join key never matches
		}
		if _, dup := r.outerRows[item]; !dup {
			items = append(items, item)
		}
		r.outerRows[item] = append(r.outerRows[item], row)
	}
}

// idSet turns an id list into a membership set; nil stays nil ("no
// restriction").
func idSet(ids []int64) map[int64]bool {
	if ids == nil {
		return nil
	}
	set := make(map[int64]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// Next implements Operator: the outer loop of Algorithms 1-2 over users,
// with the source feeding the inner loop over items.
func (r *Recommend) Next() (types.Row, bool, error) {
	for r.pos >= len(r.out) {
		r.out, r.pos = r.out[:0], 0
		if !r.active {
			if r.ui >= len(r.users) {
				return nil, false, nil
			}
			r.user = r.users[r.ui]
			r.ui++
			r.top, r.seq = r.top[:0], 0
			if r.scorer != nil {
				r.scorer.ForUser(r.user)
				r.Scored++
				if r.scorer.UserDriven() {
					r.UserDriven++
				}
			}
		}
		more, err := r.src.feed(r)
		if err != nil {
			return nil, false, err
		}
		if r.active = more; !more {
			r.drainTop()
		}
	}
	row := r.out[r.pos]
	r.pos++
	return row, true, nil
}

// Close implements Operator.
func (r *Recommend) Close() error {
	r.out, r.top, r.outerRows, r.scorer, r.src = nil, nil, nil, nil, nil
	if r.Outer != nil {
		return r.Outer.Close()
	}
	return nil
}

// ---- the tail ----

// offer runs one candidate item of the current user through the tail.
// known says score is the source's own (a RecTree entry, an IVF dot
// product); otherwise the scorer predicts it. A row is made here only for
// RatingPred or the outer join; the rows the bounded top-k keeps are made
// when it drains.
func (r *Recommend) offer(item int64, score float64, known bool) error {
	if r.scorer != nil {
		var v float64
		var rated bool
		if known {
			v, rated = r.scorer.Rated(item)
		} else {
			v, rated = r.scorer.Candidate(item)
		}
		if rated && !r.IncludeSeen {
			return nil
		}
		if rated || !known {
			score = v
		}
	}
	if r.full() && score <= r.top[0].score {
		return nil // cannot displace the K-th row: later rows lose ties
	}
	var row types.Row
	if r.RatingPred != nil {
		row = r.row(item, score)
		v, err := r.RatingPred(row)
		if err != nil {
			return err
		}
		if !expr.Truthy(v) {
			return nil
		}
	}
	if r.outerRows == nil {
		r.emit(score, item, row)
		return nil
	}
	if row == nil {
		row = r.row(item, score)
	}
	for _, outer := range r.outerRows[item] {
		r.emit(score, item, row.Concat(outer))
	}
	return nil
}

// row makes the current user's bare 〈uid, iid, ratingval〉 row.
func (r *Recommend) row(item int64, score float64) types.Row {
	return types.Row{types.NewInt(r.user), types.NewInt(item), types.NewFloat(score)}
}

// ranked is one candidate held by the bounded top-k, with the emission
// sequence number that orders equal scores; row is nil until drainTop
// makes it, unless offer already had to.
type ranked struct {
	score float64
	seq   int
	item  int64
	row   types.Row
}

// below reports whether a ranks after b: lower score, or equal score and
// emitted later.
func (a ranked) below(b ranked) bool {
	return a.score < b.score || (a.score == b.score && a.seq > b.seq)
}

// full reports whether the current user's heap already holds K rows.
func (r *Recommend) full() bool { return r.K > 0 && int64(len(r.top)) == r.K }

// emit hands one finished candidate to the output: through the bounded
// heap under K, directly without it — and directly for RecTree entries,
// which arrive in their final order. row is the candidate's row, nil when
// offer made none.
func (r *Recommend) emit(score float64, item int64, row types.Row) {
	if r.K <= 0 || r.Index != nil {
		if row == nil {
			row = r.row(item, score)
		}
		r.out = append(r.out, row)
		return
	}
	e := ranked{score: score, seq: r.seq, item: item, row: row}
	r.seq++
	h := r.top
	if !r.full() {
		h = append(h, e)
		for i := len(h) - 1; i > 0; { // sift up
			parent := (i - 1) / 2
			if !h[i].below(h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		r.top = h
		return
	}
	if !h[0].below(e) {
		return
	}
	h[0] = e
	for i := 0; ; { // sift down
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].below(h[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// drainTop moves the finished user's top-k rows to the output, best first.
// The rows offer did not make are made here, their values in one
// allocation, each row clipped so that an append copies it.
func (r *Recommend) drainTop() {
	slices.SortFunc(r.top, func(a, b ranked) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	var vals []types.Value
	for _, e := range r.top {
		if e.row == nil {
			if vals == nil {
				vals = make([]types.Value, 0, 3*len(r.top))
			}
			n := len(vals)
			vals = append(vals, types.NewInt(r.user), types.NewInt(e.item), types.NewFloat(e.score))
			e.row = vals[n:len(vals):len(vals)]
		}
		r.out = append(r.out, e.row)
	}
	r.top = r.top[:0]
}

// ---- candidate sources ----

// source feeds the current user's candidate items to the operator's tail.
// It hides how candidates are found — a cursor over an id list, the
// RecTree descent, the IVF probe / recheck / widen loop — from the tail
// they all share.
type source interface {
	// feed offers the next candidate(s) of r.user to r.offer and reports
	// whether the user has more. The first call after it reports false
	// starts the next user.
	feed(r *Recommend) (more bool, err error)
}

// itemCursor is the scan, list and outer source: it walks a fixed item
// list one candidate per feed, so the operator streams.
type itemCursor struct {
	items []int64
	pos   int
}

func (c *itemCursor) feed(r *Recommend) (bool, error) {
	if len(c.items) == 0 {
		return false, nil
	}
	err := r.offer(c.items[c.pos], 0, false)
	c.pos = (c.pos + 1) % len(c.items)
	return c.pos != 0, err
}

// recTreeSource is Algorithm 3 over the RecScoreIndex: Phase I is the
// operator's user loop against the hash table, Phase II starts the RecTree
// traversal at MaxScore, Phase III filters item ids at the leaves. Entries
// arrive in descending score order (ties in descending item id), so they
// bypass the top-k heap and the descent stops as soon as the user's K rows
// are out.
type recTreeSource struct {
	allowed map[int64]bool // iPred (nil = every item)
}

func (s recTreeSource) feed(r *Recommend) (bool, error) {
	var err error
	r.Index.Descend(r.user, r.MaxScore, func(e recindex.Entry) bool {
		if s.allowed != nil && !s.allowed[e.Item] {
			return true
		}
		err = r.offer(e.Item, e.Score, true)
		return err == nil && (r.K <= 0 || int64(len(r.out)) < r.K)
	})
	return false, err
}

// The IVF source's recall policy. A candidate universe of at most
// exactFallbackMax items is scored directly — probing cannot beat that —
// and a probe that leaves fewer than K rows after the predicates grows its
// width by probeGrowth and rescans, until every centroid is probed.
const (
	exactFallbackMax = 64
	probeGrowth      = 2
)

// ivfSource serves SVD top-k through the IVF index: rank centroids by dot
// product with the user vector, probe the nearest posting lists, score the
// candidates exactly, and widen until K rows per user survive the tail's
// predicates (over-fetch + recheck for non-selective filters). In the two
// exact modes it scores the whole universe in the scan or list source's
// order, with bit-equal scores since the index holds the model's own item
// vectors, which makes full-probe output byte-identical to theirs.
type ivfSource struct {
	ix       *ann.Index
	universe []int64        // the restricted item list, or every model item
	allowed  map[int64]bool // probe mode: universe as a set (nil = every item)
	nprobe   int
}

func newIVFSource(r *Recommend, restrict []int64) *ivfSource {
	s := &ivfSource{ix: r.IVF, universe: restrict, nprobe: r.EffectiveNProbe()}
	if restrict == nil {
		s.universe = r.Store.ItemIDs()
	} else if r.Outer != nil {
		// The joined item set has no predicate order to keep; ascending
		// ids is the order a probe emits in.
		slices.Sort(restrict)
	}
	switch {
	case r.NProbe >= s.ix.NumCentroids():
		r.Mode = "exact"
	case len(s.universe) <= exactFallbackMax:
		r.Mode = "exact-fallback"
		r.Metrics.ExactFallbacks.Inc()
	default:
		r.Mode = "probe"
		s.allowed = idSet(restrict)
	}
	return s
}

func (s *ivfSource) feed(r *Recommend) (bool, error) {
	p := r.scorer.Factors()
	if r.Mode != "probe" || p == nil {
		// Exact semantics: unknown user or item scores 0. A user the model
		// cannot rank gains nothing from probing either.
		for _, i := range s.universe {
			var score float64
			if q := s.ix.Vector(i); p != nil && q != nil {
				score = rec.Dot(p, q)
			}
			if err := r.offer(i, score, true); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	order := s.ix.ProbeOrder(p)
	for nprobe := s.nprobe; ; nprobe = min(nprobe*probeGrowth, len(order)) {
		r.top, r.seq = r.top[:0], 0
		cands := s.ix.Candidates(order, nprobe)
		for _, pos := range cands {
			i, q := s.ix.At(pos)
			if s.allowed != nil && !s.allowed[i] {
				continue
			}
			if err := r.offer(i, rec.Dot(p, q), true); err != nil {
				return false, err
			}
		}
		if r.full() || nprobe >= len(order) {
			r.Probed += nprobe
			r.Candidates += len(cands)
			r.Metrics.ProbedCentroids.Add(int64(nprobe))
			r.Metrics.Candidates.Add(int64(len(cands)))
			return false, nil
		}
		r.Metrics.Widenings.Inc()
	}
}
