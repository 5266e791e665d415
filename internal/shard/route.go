package shard

import (
	"fmt"
	"sort"
	"strings"

	"recdb/internal/sql"
	"recdb/internal/types"
)

// Action says where a statement must run.
type Action int

// Routing actions.
const (
	// RouteOwner sends the statement to the single shard owning its user
	// key — the common per-user case that preserves single-node latency.
	RouteOwner Action = iota
	// RouteOwners fans out to the subset of shards owning a user IN
	// (...) list, merging like RouteScatter.
	RouteOwners
	// RouteAny sends a read touching only replicated tables to one
	// healthy shard (every shard has the full copy).
	RouteAny
	// RouteScatter fans a read out to every shard and merges the rows
	// (ordered merge when the statement has a mergeable ORDER BY).
	RouteScatter
	// RouteBroadcast replicates a write/DDL/model build to every shard.
	RouteBroadcast
	// RouteSplit partitions a multi-user INSERT's rows among their
	// owning shards.
	RouteSplit
	// RouteDeny refuses the statement with a typed error: the router
	// cannot run it correctly across shards.
	RouteDeny
)

// Route is a classified statement: where it runs and how its answers
// combine.
type Route struct {
	Action Action
	// User is the owning key for RouteOwner; Users the distinct keys for
	// RouteOwners.
	User  int64
	Users []int64
	// Sum, for RouteBroadcast/RouteOwners writes: sum the shards' rows
	// affected (a partitioned table, each shard holds a disjoint slice)
	// instead of reporting one shard's count (a replicated table, every
	// shard reports the same number).
	Sum bool
	// Merge describes how scattered read answers combine (nil: plain
	// concatenation in shard order).
	Merge *MergeSpec
	// Insert carries the parsed statement for RouteSplit rendering.
	Insert *InsertPlan
	// Reason is the RouteDeny explanation.
	Reason string
}

// InsertPlan is a multi-user INSERT awaiting per-shard splitting:
// RowUsers[i] is the user key of Stmt.Rows[i].
type InsertPlan struct {
	Stmt     *sql.Insert
	RowUsers []int64
}

// MergeSpec describes the router-side merge of a scattered read.
type MergeSpec struct {
	// Keys are the ORDER BY columns; empty means concatenate. Each shard
	// answers in this order already, so the router runs an ordered
	// k-way merge rather than a re-sort.
	Keys []MergeKey
	// Limit and Offset apply after the merge (-1: absent).
	Limit, Offset int64
}

// MergeKey is one ORDER BY column (result-column name, lowercased).
type MergeKey struct {
	Col  string
	Desc bool
}

// catalog answers what the router has learned about table schemas from
// the DDL it replicated. columns returns lowercased column names;
// partitioned reports whether the table carries the user column (its
// rows live on the owning shard) as opposed to being replicated.
type catalog interface {
	columns(table string) ([]string, bool)
	partitioned(table string) (bool, bool) // (partitioned, known)
}

// classify decides where one parsed statement runs. userCol is the
// configured user-key column name, lowercased.
func classify(stmt sql.Statement, userCol string, cat catalog) Route {
	switch s := stmt.(type) {
	case *sql.Select:
		return classifySelect(s, userCol, cat)
	case *sql.Explain:
		// EXPLAIN routes like its query but never merges: plan text rows
		// concatenate, one plan per shard reached.
		r := classifySelect(s.Query, userCol, cat)
		r.Merge = nil
		return r
	case *sql.Insert:
		return classifyInsert(s, userCol, cat)
	case *sql.Update:
		return classifyWrite(s.Table, s.Where, userCol, cat)
	case *sql.Delete:
		return classifyWrite(s.Table, s.Where, userCol, cat)
	case *sql.CreateTable, *sql.DropTable, *sql.CreateIndex,
		*sql.CreateRecommender, *sql.DropRecommender:
		// Schema and model artifacts replicate: every shard gets the DDL,
		// and each builds/drops its model over its local partition.
		return Route{Action: RouteBroadcast}
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		return Route{Action: RouteDeny,
			Reason: "transactions are not supported through the router (no cross-shard atomic commit); run them against a single shard"}
	default:
		return Route{Action: RouteDeny, Reason: fmt.Sprintf("router cannot route %T", stmt)}
	}
}

// classifySelect routes a read: user-key equality pins it to one shard,
// a user IN list to the owners' subset, a replicated-only FROM list to
// any one shard, and everything else scatter-gathers.
func classifySelect(s *sql.Select, userCol string, cat catalog) Route {
	// A RECOMMEND clause names its user column explicitly; trust it over
	// the router's configured default for this statement.
	if s.Recommend != nil && s.Recommend.User != nil {
		userCol = strings.ToLower(s.Recommend.User.Name)
	}
	if user, ok := userEquality(s.Where, userCol); ok {
		return Route{Action: RouteOwner, User: user}
	}
	if users, ok := userInList(s.Where, userCol); ok {
		r := Route{Action: RouteOwners, Users: users}
		r.Merge, r.Reason = mergeSpec(s)
		if r.Reason != "" {
			r.Action = RouteDeny
		}
		return r
	}
	if allReplicated(s.From, cat) {
		return Route{Action: RouteAny}
	}
	if reason := scatterUnsupported(s); reason != "" {
		return Route{Action: RouteDeny, Reason: reason}
	}
	r := Route{Action: RouteScatter}
	r.Merge, r.Reason = mergeSpec(s)
	if r.Reason != "" {
		r.Action = RouteDeny
	}
	return r
}

// classifyInsert routes an INSERT: rows with user keys go to their
// owners (split across shards when they differ); rows into tables
// without the user column replicate everywhere.
func classifyInsert(s *sql.Insert, userCol string, cat catalog) Route {
	idx, known, err := userColumnIndex(s, userCol, cat)
	if err != nil {
		return Route{Action: RouteDeny, Reason: err.Error()}
	}
	if !known {
		// No user column: a replicated table (items, cities, ...).
		return Route{Action: RouteBroadcast}
	}
	users := make([]int64, len(s.Rows))
	uniform := true
	for i, row := range s.Rows {
		if idx >= len(row) {
			return Route{Action: RouteDeny,
				Reason: fmt.Sprintf("INSERT row %d has %d values but the %s column is position %d", i+1, len(row), userCol, idx+1)}
		}
		u, ok := intLiteral(row[idx])
		if !ok {
			return Route{Action: RouteDeny,
				Reason: fmt.Sprintf("INSERT row %d: the %s value must be an integer literal for routing", i+1, userCol)}
		}
		users[i] = u
		if u != users[0] {
			uniform = false
		}
	}
	if uniform {
		return Route{Action: RouteOwner, User: users[0]}
	}
	return Route{Action: RouteSplit, Insert: &InsertPlan{Stmt: s, RowUsers: users}}
}

// classifyWrite routes UPDATE/DELETE: user-key equality to the owner, a
// user IN list to the owners (summing counts), otherwise to every shard
// — each applies it to its local slice of a partitioned table, or to
// its full copy of a replicated one.
func classifyWrite(table string, where sql.Expr, userCol string, cat catalog) Route {
	if user, ok := userEquality(where, userCol); ok {
		return Route{Action: RouteOwner, User: user}
	}
	part, known := cat.partitioned(table)
	sum := known && part
	if users, ok := userInList(where, userCol); ok {
		return Route{Action: RouteOwners, Users: users, Sum: true}
	}
	return Route{Action: RouteBroadcast, Sum: sum}
}

// scatterUnsupported names the reason a cross-shard read cannot merge
// correctly at the router, or "" when it can.
func scatterUnsupported(s *sql.Select) string {
	const hint = "; add a user-key predicate to pin the statement to one shard"
	if len(s.GroupBy) > 0 || s.Having != nil {
		return "cross-shard GROUP BY/HAVING is not supported (partial groups cannot be merged at the router)" + hint
	}
	if s.Distinct {
		return "cross-shard DISTINCT is not supported" + hint
	}
	for _, item := range s.Items {
		if sql.ContainsAggregate(item.Expr) {
			return "cross-shard aggregation is not supported (partial aggregates cannot be merged at the router)" + hint
		}
	}
	return ""
}

// mergeSpec derives the router-side merge from ORDER BY/LIMIT/OFFSET.
// The second result is a deny reason when the clause cannot be merged.
func mergeSpec(s *sql.Select) (*MergeSpec, string) {
	m := &MergeSpec{Limit: -1, Offset: -1}
	for _, o := range s.OrderBy {
		col, ok := o.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, "cross-shard ORDER BY on an expression is not supported; order by a plain column or add a user-key predicate"
		}
		m.Keys = append(m.Keys, MergeKey{Col: strings.ToLower(col.Name), Desc: o.Desc})
	}
	if s.Limit != nil {
		n, ok := intLiteral(s.Limit)
		if !ok {
			return nil, "cross-shard LIMIT must be an integer literal"
		}
		m.Limit = n
	}
	if s.Offset != nil {
		n, ok := intLiteral(s.Offset)
		if !ok {
			return nil, "cross-shard OFFSET must be an integer literal"
		}
		m.Offset = n
	}
	if len(m.Keys) == 0 && m.Limit < 0 && m.Offset < 0 {
		return nil, ""
	}
	return m, ""
}

// allReplicated reports whether every FROM table is known to be
// replicated (schema learned, no user column), so any one shard can
// answer the read alone.
func allReplicated(from []sql.TableRef, cat catalog) bool {
	if len(from) == 0 {
		return false
	}
	for _, t := range from {
		part, known := cat.partitioned(t.Table)
		if !known || part {
			return false
		}
	}
	return true
}

// userColumnIndex locates the user column in an INSERT's value rows:
// by name when columns are listed, by the learned CREATE TABLE schema
// when positional. known=false means the table has no user column (a
// replicated table). An unknown table with positional values cannot be
// routed and errors.
func userColumnIndex(s *sql.Insert, userCol string, cat catalog) (idx int, known bool, err error) {
	if len(s.Cols) > 0 {
		for i, c := range s.Cols {
			if strings.EqualFold(c, userCol) {
				return i, true, nil
			}
		}
		return 0, false, nil
	}
	cols, ok := cat.columns(s.Table)
	if !ok {
		return 0, false, fmt.Errorf("router cannot route a positional INSERT into %q: its schema was not created through the router; name the columns (INSERT INTO %s (...) VALUES ...) or replay the CREATE TABLE", s.Table, s.Table)
	}
	for i, c := range cols {
		if c == userCol {
			return i, true, nil
		}
	}
	return 0, false, nil
}

// userEquality finds a `userCol = <int literal>` conjunct (either
// operand order, any qualifier).
func userEquality(where sql.Expr, userCol string) (int64, bool) {
	for _, c := range sql.Conjuncts(where) {
		b, ok := c.(*sql.Binary)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		if isUserCol(b.L, userCol) {
			if v, ok := intLiteral(b.R); ok {
				return v, true
			}
		}
		if isUserCol(b.R, userCol) {
			if v, ok := intLiteral(b.L); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// userInList finds a `userCol IN (int literals...)` conjunct and
// returns the distinct users sorted ascending.
func userInList(where sql.Expr, userCol string) ([]int64, bool) {
	for _, c := range sql.Conjuncts(where) {
		in, ok := c.(*sql.In)
		if !ok || in.Negate || !isUserCol(in.X, userCol) {
			continue
		}
		seen := make(map[int64]bool, len(in.List))
		users := make([]int64, 0, len(in.List))
		allLits := true
		for _, e := range in.List {
			v, ok := intLiteral(e)
			if !ok {
				allLits = false
				break
			}
			if !seen[v] {
				seen[v] = true
				users = append(users, v)
			}
		}
		if allLits && len(users) > 0 {
			sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
			return users, true
		}
	}
	return nil, false
}

func isUserCol(e sql.Expr, userCol string) bool {
	c, ok := e.(*sql.ColumnRef)
	return ok && strings.EqualFold(c.Name, userCol)
}

// intLiteral unwraps an integer literal (the parser folds a unary minus
// into the literal).
func intLiteral(e sql.Expr) (int64, bool) {
	if lit, ok := e.(*sql.Literal); ok {
		return lit.Value.AsInt()
	}
	return 0, false
}

// renderInsert renders the sub-INSERT carrying the given row indices of
// a split statement, preserving column list and value expressions.
func renderInsert(s *sql.Insert, rows []int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(s.Table)
	if len(s.Cols) > 0 {
		sb.WriteString(" (")
		sb.WriteString(strings.Join(s.Cols, ", "))
		sb.WriteString(")")
	}
	sb.WriteString(" VALUES ")
	for i, ri := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, e := range s.Rows[ri] {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(sql.ExprString(e))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// compareRows orders two result rows under the merge keys (resolved to
// column indices); ties break by shard index for determinism.
func compareRows(a, b types.Row, keys []resolvedKey) int {
	for _, k := range keys {
		if k.idx >= len(a) || k.idx >= len(b) {
			continue
		}
		c, err := types.Compare(a[k.idx], b[k.idx])
		if err != nil {
			continue // incomparable kinds keep input order
		}
		if c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// resolvedKey is a MergeKey bound to a result-column index.
type resolvedKey struct {
	idx  int
	desc bool
}

// resolveKeys binds merge keys to result columns by (case-insensitive)
// name; ok=false when a key column is missing from the result, in which
// case the merge falls back to concatenation.
func resolveKeys(keys []MergeKey, cols []string) ([]resolvedKey, bool) {
	out := make([]resolvedKey, 0, len(keys))
	for _, k := range keys {
		found := -1
		for i, c := range cols {
			if strings.EqualFold(c, k.Col) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		out = append(out, resolvedKey{idx: found, desc: k.Desc})
	}
	return out, true
}
