// Package plan turns parsed SELECT statements into operator trees. Its
// job, beyond ordinary scan/filter/join/sort planning, is the paper's
// recommendation-aware optimization (§IV-B): pushing uid/iid/ratingval
// predicates, an item-joined relation and an ORDER BY ratingval DESC LIMIT
// into the one RECOMMEND operator, and choosing where its candidate items
// come from (chooseSource) — all model items, a pushed-down list, the
// joined relation, pre-computed scores in the RecScoreIndex, or an IVF
// probe — mirroring the plans of Fig. 3.
//
// Engine semantics note: the RECOMMEND clause returns predictions for
// items the querying users have not rated (the behaviour of the released
// RecDB system). Algorithm 1's emit-actual-rating-for-rated-pairs variant
// is available at the operator level (exec.Recommend.IncludeSeen).
package plan

import (
	"errors"
	"fmt"
	"strings"

	"recdb/internal/catalog"
	"recdb/internal/exec"
	"recdb/internal/expr"
	"recdb/internal/rec"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// Planner plans SELECT statements against a catalog and recommender state.
type Planner struct {
	Catalog *catalog.Catalog
	Rec     *rec.Manager
	// Source forces the RECOMMEND operator's candidate source; the zero
	// value lets chooseSource pick. A statement the forced source cannot
	// serve fails to plan (ErrSourceIneligible) — there is no silent
	// fallback. The paper's ablations (Fig. 6-8) and the source
	// differential test compare sources on the same statement with it.
	Source exec.Source
	// VectorProbe overrides the IVF index's default probe width (0 =
	// default); any width of at least the number of centroids is a full
	// probe, whose output is byte-identical to the exact scan.
	VectorProbe int
	// VecMetrics receives IVF probe instrumentation; the zero value
	// records nothing.
	VecMetrics exec.VectorMetrics
}

// Explain describes the chosen plan for observability and tests.
type Explain struct {
	Strategy string // "Recommend", "FilterRecommend", "JoinRecommend", "IndexRecommend", "VectorRecommend", or "" for plain queries
	// SortSkipped reports that the RECOMMEND operator's fused top-k already
	// delivers the statement's ORDER BY, so no Sort was planned.
	SortSkipped bool

	// The recommender a RECOMMEND plan scores with, and the users its
	// predicate names: the statement's §IV-D demand (RecordDemand).
	recommender *rec.Recommender
	users       []int64
}

// RecordDemand feeds the users the statement's RECOMMEND predicate names
// to its recommender's Users Histogram (§IV-D). Call it once the statement
// has run: a statement that only plans, or fails, is no demand.
func (ex *Explain) RecordDemand() {
	for _, u := range ex.users {
		ex.recommender.Cache().RecordQuery(u)
	}
}

// PlanSelect builds the operator tree for a SELECT statement.
func (p *Planner) PlanSelect(stmt *sql.Select) (exec.Operator, *Explain, error) {
	ex := &Explain{}
	conjuncts := sql.Conjuncts(stmt.Where)
	applied := make(map[sql.Expr]bool)

	var root exec.Operator
	var err error

	if stmt.Recommend != nil {
		root, err = p.planRecommend(stmt, conjuncts, applied, ex)
	} else {
		root, err = p.planPlain(stmt, conjuncts, applied)
	}
	if err != nil {
		return nil, nil, err
	}

	// Apply every remaining conjunct at the top (those referencing columns
	// from multiple tables, or not consumed by pushdown).
	root, err = applyFilters(root, conjuncts, applied)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range conjuncts {
		if !applied[c] {
			return nil, nil, unresolvableConjunct(c, root.Schema())
		}
	}

	// GROUP BY / HAVING / aggregates. The select list and ORDER BY are
	// rewritten to reference the aggregate's output.
	items := stmt.Items
	orderBy := stmt.OrderBy
	if needsAggregate(stmt) {
		info, err := planAggregate(stmt, root)
		if err != nil {
			return nil, nil, err
		}
		root = info.op
		items = info.items
		orderBy = info.orderBy
		if info.having != nil {
			compiled, err := expr.Compile(info.having, root.Schema())
			if err != nil {
				return nil, nil, err
			}
			root = exec.NewFilter(root, compiled)
		}
	}

	limit := func(op exec.Operator) (exec.Operator, error) {
		if stmt.Limit == nil && stmt.Offset == nil {
			return op, nil
		}
		n := int64(-1)
		if stmt.Limit != nil {
			var err error
			if n, err = constInt(stmt.Limit); err != nil {
				return nil, err
			}
		}
		var skip int64
		if stmt.Offset != nil {
			var err error
			if skip, err = constInt(stmt.Offset); err != nil {
				return nil, err
			}
		}
		return exec.NewLimitOffset(op, n, skip), nil
	}
	sortBy := func(op exec.Operator) (exec.Operator, error) {
		if len(orderBy) == 0 || ex.SortSkipped {
			return op, nil
		}
		keys := make([]exec.SortKey, len(orderBy))
		for i, o := range orderBy {
			c, err := expr.Compile(o.Expr, op.Schema())
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{Expr: c, Desc: o.Desc}
		}
		return exec.NewSort(op, keys), nil
	}

	// DISTINCT changes the evaluation order: project → dedup → sort (keys
	// resolve against the projected columns) → limit.
	if stmt.Distinct {
		root, err = p.project(root, items)
		if err != nil {
			return nil, nil, err
		}
		root = exec.NewDistinct(root)
		if root, err = sortBy(root); err != nil {
			return nil, nil, err
		}
		root, err = limit(root)
		return root, ex, err
	}

	// Default order: sort pre-projection (keys may reference columns that
	// are not selected), limit, then project. When a sort key only
	// resolves against the projected schema (an output alias), project
	// first instead.
	preSortOK := true
	for _, o := range orderBy {
		if _, err := expr.Compile(o.Expr, root.Schema()); err != nil {
			preSortOK = false
			break
		}
	}
	if preSortOK {
		if root, err = sortBy(root); err != nil {
			return nil, nil, err
		}
		if root, err = limit(root); err != nil {
			return nil, nil, err
		}
		root, err = p.project(root, items)
		return root, ex, err
	}
	if root, err = p.project(root, items); err != nil {
		return nil, nil, err
	}
	if root, err = sortBy(root); err != nil {
		return nil, nil, err
	}
	root, err = limit(root)
	return root, ex, err
}

func unresolvableConjunct(c sql.Expr, schema *types.Schema) error {
	if _, err := expr.Compile(c, schema); err != nil {
		return err
	}
	return fmt.Errorf("plan: internal error: conjunct not applied")
}

// ---- Plain (non-recommendation) planning ----

func (p *Planner) planPlain(stmt *sql.Select, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT requires FROM")
	}
	ops := make([]exec.Operator, len(stmt.From))
	for i, ref := range stmt.From {
		op, err := p.scanTable(ref, conjuncts, applied)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return p.joinAll(ops, conjuncts, applied)
}

// scanTable builds the access path for one FROM entry: a SpatialIndexScan
// when an R-tree-eligible spatial conjunct targets this table, an
// IndexScan when an equality conjunct probes a B-tree-indexed column,
// otherwise a sequential scan; remaining single-table conjuncts stack as
// filters. A name the catalog does not have may be one of a recommender's
// model relations, read by a ModelScan of its current model.
func (p *Planner) scanTable(ref sql.TableRef, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	tab, err := p.Catalog.Get(ref.Table)
	if err != nil {
		rel, ok := p.Rec.Relation(ref.Table)
		if !ok {
			return nil, err
		}
		return applyFilters(exec.NewModelScan(rel, ref.Name()), conjuncts, applied)
	}
	var op exec.Operator
	for _, c := range conjuncts {
		if applied[c] {
			continue
		}
		if sscan := trySpatialScan(tab, ref.Name(), c); sscan != nil {
			applied[c] = true // the scan verifies the exact predicate
			op = sscan
			break
		}
		if iscan := tryIndexScan(tab, ref.Name(), c); iscan != nil {
			// Deliberately not applied: the equality stays as a recheck
			// filter above the scan (see tryIndexScan).
			op = iscan
			break
		}
	}
	if op == nil {
		op = exec.NewSeqScan(tab, ref.Name())
	}
	return applyFilters(op, conjuncts, applied)
}

// joinAll folds operators left-deep, using a hash join when an equi
// conjunct connects the sides.
func (p *Planner) joinAll(ops []exec.Operator, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	cur := ops[0]
	for _, right := range ops[1:] {
		joined, err := p.joinPair(cur, right, conjuncts, applied)
		if err != nil {
			return nil, err
		}
		cur, err = applyFilters(joined, conjuncts, applied)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (p *Planner) joinPair(left, right exec.Operator, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	// Look for an unapplied equi conjunct with one side in left's schema
	// and the other in right's.
	for _, c := range conjuncts {
		if applied[c] {
			continue
		}
		b, ok := c.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		lc, err1 := expr.Compile(b.L, left.Schema())
		rc, err2 := expr.Compile(b.R, right.Schema())
		if err1 == nil && err2 == nil {
			applied[c] = true
			return exec.NewHashJoin(left, right, lc, rc, nil), nil
		}
		lc, err1 = expr.Compile(b.R, left.Schema())
		rc, err2 = expr.Compile(b.L, right.Schema())
		if err1 == nil && err2 == nil {
			applied[c] = true
			return exec.NewHashJoin(left, right, lc, rc, nil), nil
		}
	}
	return exec.NewNestedLoopJoin(left, right, nil), nil
}

// applyFilters wraps op with every not-yet-applied conjunct that compiles
// against its schema.
func applyFilters(op exec.Operator, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	for _, c := range conjuncts {
		if applied[c] {
			continue
		}
		compiled, err := expr.Compile(c, op.Schema())
		if err != nil {
			continue // not yet resolvable; try higher up
		}
		op = exec.NewFilter(op, compiled)
		applied[c] = true
	}
	return op, nil
}

// ---- Recommendation planning ----

func (p *Planner) planRecommend(stmt *sql.Select, conjuncts []sql.Expr, applied map[sql.Expr]bool, ex *Explain) (exec.Operator, error) {
	rc := stmt.Recommend

	// Locate the ratings table in FROM: the entry the clause's column
	// references are qualified by, or the only entry.
	recIdx := -1
	for i, ref := range stmt.From {
		q := rc.Item.Qualifier
		if q == "" {
			q = rc.User.Qualifier
		}
		if q == "" && len(stmt.From) == 1 {
			recIdx = 0
			break
		}
		if strings.EqualFold(ref.Name(), q) {
			recIdx = i
			break
		}
	}
	if recIdx < 0 {
		return nil, fmt.Errorf("plan: RECOMMEND clause references %q, which is not in FROM", rc.Item.Qualifier)
	}
	ratingsRef := stmt.From[recIdx]

	recommender, err := p.Rec.ForQuery(ratingsRef.Table, rc.Algorithm)
	if err != nil {
		return nil, err
	}
	store := recommender.Store()
	alias := ratingsRef.Name()
	recSchema := exec.RecSchema(alias, recommender.UserCol, recommender.ItemCol, recommender.RatingCol)

	// Extract pushdownable predicates. A forced scan source is the "no
	// item pushdown" ablation: the iid list stays a filter above it.
	pd := extractRecPreds(conjuncts, alias, recommender, applied, p.Source != exec.SourceScan)
	ex.recommender, ex.users = recommender, pd.users

	// Compile rating conjuncts against the bare rec schema for pushdown.
	var ratingPred expr.Compiled
	for _, c := range pd.ratingConjuncts {
		compiled, err := expr.Compile(c, recSchema)
		if err != nil {
			return nil, err
		}
		prev := ratingPred
		if prev == nil {
			ratingPred = compiled
		} else {
			cur := compiled
			ratingPred = func(row types.Row) (types.Value, error) {
				v, err := prev(row)
				if err != nil || !expr.Truthy(v) {
					return v, err
				}
				return cur(row)
			}
		}
	}

	// Other FROM tables.
	var others []tableOp
	for i, ref := range stmt.From {
		if i == recIdx {
			continue
		}
		op, err := p.scanTable(ref, conjuncts, applied)
		if err != nil {
			return nil, err
		}
		others = append(others, tableOp{ref, op})
	}

	op := exec.NewRecommend(store, recSchema)
	op.IncludeSeen = false
	op.RatingPred = ratingPred
	if pd.usersSet {
		op.Users = pd.users
	}
	if pd.itemsSet {
		op.Items = pd.items
	}
	// The operator drives the first relation equi-joined to the item
	// column itself (§IV-B2): its item ids restrict the candidates and its
	// rows join at emission. Forcing the scan or list source is the "no
	// join pushdown" ablation: the join stays above the operator.
	if p.Source != exec.SourceScan && p.Source != exec.SourceList {
		for oi, other := range others {
			col, joinConj := findItemJoin(conjuncts, applied, alias, recommender, other.op.Schema())
			if joinConj == nil {
				continue
			}
			applied[joinConj] = true
			op.Outer, op.OuterItemCol = other.op, col
			others = append(append([]tableOp(nil), others[:oi]...), others[oi+1:]...)
			break
		}
	}
	op.K = topK(stmt, alias, recommender, others, conjuncts, applied)

	src, err := p.chooseSource(recommender, op)
	if err != nil {
		return nil, err
	}
	switch src {
	case exec.SourceRecTree:
		op.Index = recommender.Cache().Index()
		// Phase II of Algorithm 3: an upper bound on ratingval starts the
		// RecTree traversal below it.
		if bound, ok := ratingUpperBound(pd.ratingConjuncts, alias, recommender); ok {
			op.MaxScore = &bound
		}
	case exec.SourceIVF:
		op.IVF = store.ANN()
		op.NProbe = p.VectorProbe
		op.Metrics = p.VecMetrics
	}
	ex.Strategy = op.Strategy()
	// The operator hands back each user's rows already in ORDER BY order;
	// across several users they still need the Sort.
	ex.SortSkipped = op.K > 0 && len(op.Users) == 1
	return p.joinOthers(op, others, conjuncts, applied)
}

// ErrSourceIneligible is returned (wrapped) when Planner.Source forces a
// candidate source the statement cannot be served from.
var ErrSourceIneligible = errors.New("plan: forced candidate source is not eligible")

// sourcePreference is the candidate-source policy: the first eligible
// source wins. Pre-computed scores beat any online scoring; a bounded
// probe beats scoring every candidate; a restricted candidate list beats
// all items. DESIGN.md §4 has the eligibility table.
var sourcePreference = [...]exec.Source{
	exec.SourceRecTree, exec.SourceIVF, exec.SourceOuter, exec.SourceList, exec.SourceScan,
}

// chooseSource picks the candidate source for op, whose user list, item
// list, outer relation and row target are already set: the forced one if
// Planner.Source names it, otherwise the first eligible in
// sourcePreference.
func (p *Planner) chooseSource(r *rec.Recommender, op *exec.Recommend) (exec.Source, error) {
	eligible := func(s exec.Source) bool {
		switch s {
		case exec.SourceRecTree:
			// Every requested user has a RecTree, which Fill writes whole.
			if len(op.Users) == 0 {
				return false
			}
			ix := r.Cache().Index()
			for _, u := range op.Users {
				if !ix.Complete(u) {
					return false
				}
			}
			return true
		case exec.SourceIVF:
			// An SVD top-k for explicit users: the probe needs a per-user
			// row target that nothing above the operator can eat into
			// (topK), and a universe worth probing.
			if op.Store.Algo != rec.SVD || len(op.Users) == 0 || op.K <= 0 {
				return false
			}
			if op.Items != nil && len(op.Items) == 0 {
				return false // contradictory IN-lists: the list source is already O(0)
			}
			return op.Store.ANN() != nil
		case exec.SourceOuter:
			return op.Outer != nil
		case exec.SourceList:
			return op.Items != nil
		}
		return true // scan
	}
	if p.Source != exec.SourceAuto {
		if !eligible(p.Source) {
			return 0, fmt.Errorf("%w: %s", ErrSourceIneligible, p.Source)
		}
		return p.Source, nil
	}
	for _, s := range sourcePreference {
		if eligible(s) {
			return s, nil
		}
	}
	return exec.SourceScan, nil
}

// topK is the one gate for fusing the statement's ORDER BY and LIMIT into
// the operator, whatever its source. It returns the per-user row target
// K = LIMIT + OFFSET, or 0 when the operator must emit everything: K is
// valid only when ORDER BY is exactly "ratingval DESC" with a constant
// LIMIT, no aggregation or DISTINCT sits between the operator and the
// limit, and nothing is planned above the operator that could drop rows —
// no other table left to join (above) and every conjunct absorbed.
func topK(stmt *sql.Select, alias string, r *rec.Recommender, above []tableOp, conjuncts []sql.Expr, applied map[sql.Expr]bool) int64 {
	if len(above) > 0 || needsAggregate(stmt) || stmt.Distinct || stmt.Limit == nil || !orderIsRatingDesc(stmt, alias, r) {
		return 0
	}
	for _, c := range conjuncts {
		if !applied[c] {
			return 0
		}
	}
	k, err := constInt(stmt.Limit)
	if err != nil {
		return 0
	}
	if stmt.Offset != nil {
		skip, err := constInt(stmt.Offset)
		if err != nil {
			return 0
		}
		k += skip
	}
	return k
}

// tableOp pairs a FROM entry with its (possibly filtered) scan.
type tableOp struct {
	ref sql.TableRef
	op  exec.Operator
}

func (p *Planner) joinOthers(cur exec.Operator, others []tableOp, conjuncts []sql.Expr, applied map[sql.Expr]bool) (exec.Operator, error) {
	ops := []exec.Operator{cur}
	for _, o := range others {
		ops = append(ops, o.op)
	}
	return p.joinAll(ops, conjuncts, applied)
}

// orderIsRatingDesc reports whether ORDER BY is exactly "ratingval DESC"
// on the recommender's rating column.
func orderIsRatingDesc(stmt *sql.Select, alias string, r *rec.Recommender) bool {
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		return false
	}
	ref, ok := stmt.OrderBy[0].Expr.(*sql.ColumnRef)
	if !ok {
		return false
	}
	if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, alias) {
		return false
	}
	return strings.EqualFold(ref.Name, r.RatingCol)
}

// recPreds is the pushdown analysis of a WHERE clause against a
// recommender's output columns.
type recPreds struct {
	users           []int64
	usersSet        bool
	items           []int64
	itemsSet        bool
	ratingConjuncts []sql.Expr
}

// extractRecPreds classifies WHERE conjuncts that reference only the
// recommender's columns: user-id equality/IN lists, item-id equality/IN
// lists, and rating-value predicates. Matching conjuncts are marked applied
// (enforced by restricting the operator's loops); with pushItems false the
// item-id conjuncts are left for a filter above the operator.
func extractRecPreds(conjuncts []sql.Expr, alias string, r *rec.Recommender, applied map[sql.Expr]bool, pushItems bool) recPreds {
	var pd recPreds
	for _, c := range conjuncts {
		if applied[c] {
			continue
		}
		if ids, ok := idListPred(c, alias, r.UserCol); ok {
			pd.users = intersect(pd.users, pd.usersSet, ids)
			pd.usersSet = true
			applied[c] = true
			continue
		}
		if ids, ok := idListPred(c, alias, r.ItemCol); ok {
			if !pushItems {
				continue
			}
			pd.items = intersect(pd.items, pd.itemsSet, ids)
			pd.itemsSet = true
			applied[c] = true
			continue
		}
		if refsOnly(c, alias, r.RatingCol) {
			pd.ratingConjuncts = append(pd.ratingConjuncts, c)
			applied[c] = true
		}
	}
	return pd
}

func intersect(cur []int64, curSet bool, add []int64) []int64 {
	if !curSet {
		return add
	}
	in := make(map[int64]bool, len(add))
	for _, v := range add {
		in[v] = true
	}
	// Never nil: an empty-but-set list means "no ids match", which the
	// operators must distinguish from nil ("no restriction").
	out := []int64{}
	for _, v := range cur {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// idListPred recognizes "<alias>.<col> = <int literal>" and
// "<alias>.<col> IN (<int literals>)". IN is set membership: a repeated
// literal counts once, at its first position (the list source and the
// full-probe identity depend on predicate order).
func idListPred(c sql.Expr, alias, col string) ([]int64, bool) {
	switch v := c.(type) {
	case *sql.Binary:
		if v.Op != sql.OpEq {
			return nil, false
		}
		if ref, lit, ok := refAndLiteral(v.L, v.R); ok && refMatches(ref, alias, col) {
			if id, ok := lit.AsInt(); ok {
				return []int64{id}, true
			}
		}
		return nil, false
	case *sql.In:
		if v.Negate {
			return nil, false
		}
		ref, ok := v.X.(*sql.ColumnRef)
		if !ok || !refMatches(ref, alias, col) {
			return nil, false
		}
		ids := make([]int64, 0, len(v.List))
		listed := make(map[int64]bool, len(v.List))
		for _, e := range v.List {
			lit, ok := e.(*sql.Literal)
			if !ok {
				return nil, false
			}
			id, ok := lit.Value.AsInt()
			if !ok {
				return nil, false
			}
			if !listed[id] {
				listed[id] = true
				ids = append(ids, id)
			}
		}
		return ids, true
	}
	return nil, false
}

func refAndLiteral(a, b sql.Expr) (*sql.ColumnRef, types.Value, bool) {
	if ref, ok := a.(*sql.ColumnRef); ok {
		if lit, ok := b.(*sql.Literal); ok {
			return ref, lit.Value, true
		}
	}
	if ref, ok := b.(*sql.ColumnRef); ok {
		if lit, ok := a.(*sql.Literal); ok {
			return ref, lit.Value, true
		}
	}
	return nil, types.Null(), false
}

func refMatches(ref *sql.ColumnRef, alias, col string) bool {
	if !strings.EqualFold(ref.Name, col) {
		return false
	}
	return ref.Qualifier == "" || strings.EqualFold(ref.Qualifier, alias)
}

// refsOnly reports whether every column reference in c is the given
// (alias, col).
func refsOnly(c sql.Expr, alias, col string) bool {
	ok := true
	sql.Walk(c, func(e sql.Expr) {
		if ref, isRef := e.(*sql.ColumnRef); isRef && !refMatches(ref, alias, col) {
			ok = false
		}
	})
	return ok
}

// findItemJoin locates an unapplied equi conjunct joining the
// recommender's item column to a column of the other schema. It returns
// the other-side column position and the conjunct.
func findItemJoin(conjuncts []sql.Expr, applied map[sql.Expr]bool, alias string, r *rec.Recommender, other *types.Schema) (int, sql.Expr) {
	for _, c := range conjuncts {
		if applied[c] {
			continue
		}
		b, ok := c.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		sides := [][2]sql.Expr{{b.L, b.R}, {b.R, b.L}}
		for _, s := range sides {
			recRef, ok := s[0].(*sql.ColumnRef)
			if !ok || !refMatches(recRef, alias, r.ItemCol) || recRef.Qualifier == "" {
				continue
			}
			otherRef, ok := s[1].(*sql.ColumnRef)
			if !ok {
				continue
			}
			if idx, err := other.Resolve(otherRef.Qualifier, otherRef.Name); err == nil {
				return idx, c
			}
		}
	}
	return -1, nil
}

// ratingUpperBound extracts the tightest "ratingval <= x" / "ratingval < x"
// bound among rating conjuncts (also accepting the flipped "x >= ratingval"
// spelling). The residual RatingPred still enforces strictness for "<".
func ratingUpperBound(conjuncts []sql.Expr, alias string, r *rec.Recommender) (float64, bool) {
	best := 0.0
	found := false
	consider := func(v types.Value) {
		f, ok := v.AsFloat()
		if !ok {
			return
		}
		if !found || f < best {
			best = f
			found = true
		}
	}
	for _, c := range conjuncts {
		b, ok := c.(*sql.Binary)
		if !ok {
			continue
		}
		switch b.Op {
		case sql.OpLe, sql.OpLt:
			if ref, ok := b.L.(*sql.ColumnRef); ok && refMatches(ref, alias, r.RatingCol) {
				if lit, ok := b.R.(*sql.Literal); ok {
					consider(lit.Value)
				}
			}
		case sql.OpGe, sql.OpGt:
			if ref, ok := b.R.(*sql.ColumnRef); ok && refMatches(ref, alias, r.RatingCol) {
				if lit, ok := b.L.(*sql.Literal); ok {
					consider(lit.Value)
				}
			}
		}
	}
	return best, found
}

func constInt(e sql.Expr) (int64, error) {
	lit, ok := e.(*sql.Literal)
	if !ok {
		return 0, fmt.Errorf("plan: LIMIT must be a literal")
	}
	n, ok := lit.Value.AsInt()
	if !ok || n < 0 {
		return 0, fmt.Errorf("plan: LIMIT must be a non-negative integer")
	}
	return n, nil
}

// project applies the SELECT list.
func (p *Planner) project(op exec.Operator, items []sql.SelectItem) (exec.Operator, error) {
	// SELECT * alone passes rows through.
	if len(items) == 1 && items[0].Star {
		return op, nil
	}
	var exprs []expr.Compiled
	var cols []types.Column
	in := op.Schema()
	for _, item := range items {
		if item.Star {
			for i := range in.Columns {
				idx := i
				exprs = append(exprs, func(row types.Row) (types.Value, error) {
					return row[idx], nil
				})
				cols = append(cols, in.Columns[i])
			}
			continue
		}
		compiled, err := expr.Compile(item.Expr, in)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, compiled)
		cols = append(cols, types.Column{
			Name: projectionName(item),
			Kind: inferKind(item.Expr, in),
		})
	}
	return exec.NewProject(op, exprs, types.NewSchema(cols...)), nil
}

func projectionName(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(*sql.ColumnRef); ok {
		return ref.Name
	}
	if call, ok := item.Expr.(*sql.Call); ok {
		return strings.ToLower(call.Name)
	}
	return "?column?"
}

func inferKind(e sql.Expr, schema *types.Schema) types.Kind {
	switch v := e.(type) {
	case *sql.Literal:
		return v.Value.Kind()
	case *sql.ColumnRef:
		if idx, err := schema.Resolve(v.Qualifier, v.Name); err == nil {
			return schema.Columns[idx].Kind
		}
	case *sql.Binary:
		switch v.Op {
		case sql.OpAnd, sql.OpOr, sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return types.KindBool
		default:
			lk, rk := inferKind(v.L, schema), inferKind(v.R, schema)
			if lk == types.KindInt && rk == types.KindInt {
				return types.KindInt
			}
			return types.KindFloat
		}
	case *sql.In, *sql.IsNull:
		return types.KindBool
	case *sql.Unary:
		if v.Op == "NOT" {
			return types.KindBool
		}
		return inferKind(v.X, schema)
	case *sql.Call:
		return types.KindFloat // common case; values are self-describing anyway
	}
	return types.KindNull
}
