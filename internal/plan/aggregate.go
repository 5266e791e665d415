package plan

import (
	"fmt"
	"strings"

	"recdb/internal/exec"
	"recdb/internal/expr"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// aggregateInfo is the outcome of aggregate planning: the HashAggregate
// operator plus the rewritten projection/having/order expressions, which
// now reference the aggregate's output columns (__grp_N / __agg_N).
type aggregateInfo struct {
	op      *exec.HashAggregate
	items   []sql.SelectItem
	having  sql.Expr
	orderBy []sql.OrderItem
}

// needsAggregate reports whether the query uses GROUP BY, HAVING, or any
// aggregate function anywhere in its select list or ORDER BY.
func needsAggregate(stmt *sql.Select) bool {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return true
	}
	for _, item := range stmt.Items {
		if !item.Star && sql.ContainsAggregate(item.Expr) {
			return true
		}
	}
	for _, o := range stmt.OrderBy {
		if sql.ContainsAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// planAggregate builds the HashAggregate over input and rewrites the
// select list, HAVING, and ORDER BY to reference its output. Non-aggregate
// expressions must match a GROUP BY expression (by canonical rendering),
// the standard SQL rule.
func planAggregate(stmt *sql.Select, input exec.Operator) (*aggregateInfo, error) {
	inSchema := input.Schema()

	// Group keys.
	groupIdx := make(map[string]int, len(stmt.GroupBy))
	groupCompiled := make([]expr.Compiled, len(stmt.GroupBy))
	var outCols []types.Column
	for i, g := range stmt.GroupBy {
		c, err := expr.Compile(g, inSchema)
		if err != nil {
			return nil, err
		}
		groupCompiled[i] = c
		groupIdx[sql.ExprString(g)] = i
		outCols = append(outCols, types.Column{
			Name: fmt.Sprintf("__grp_%d", i),
			Kind: inferKind(g, inSchema),
		})
	}

	// Aggregate specs, deduplicated by canonical rendering.
	aggIdx := make(map[string]int)
	var specs []exec.AggSpec
	collect := func(e sql.Expr) error {
		var walkErr error
		sql.Walk(e, func(n sql.Expr) {
			c, ok := n.(*sql.Call)
			if !ok {
				return
			}
			kind, isAgg := sql.Aggregate(c.Name)
			if !isAgg {
				return
			}
			key := sql.ExprString(c)
			if _, seen := aggIdx[key]; seen {
				return
			}
			if len(c.Args) != 1 {
				walkErr = fmt.Errorf("plan: %s takes exactly one argument", strings.ToUpper(c.Name))
				return
			}
			spec := exec.AggSpec{Kind: kind}
			if _, star := c.Args[0].(*sql.Star); star {
				if kind != sql.AggCount {
					walkErr = fmt.Errorf("plan: * is only valid in COUNT(*)")
					return
				}
				spec.Kind = sql.AggCountStar
			} else {
				if sql.ContainsAggregate(c.Args[0]) {
					walkErr = fmt.Errorf("plan: nested aggregates are not allowed")
					return
				}
				compiled, err := expr.Compile(c.Args[0], inSchema)
				if err != nil {
					walkErr = err
					return
				}
				spec.Arg = compiled
			}
			aggIdx[key] = len(specs)
			specs = append(specs, spec)
		})
		return walkErr
	}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, err
		}
	}
	for i, spec := range specs {
		kind := types.KindFloat
		switch spec.Kind {
		case sql.AggCount, sql.AggCountStar:
			kind = types.KindInt
		}
		outCols = append(outCols, types.Column{Name: fmt.Sprintf("__agg_%d", i), Kind: kind})
		_ = i
	}

	info := &aggregateInfo{
		op: exec.NewHashAggregate(input, groupCompiled, specs, types.NewSchema(outCols...)),
	}

	// Rewrite the outer expressions against the aggregate output.
	rewrite := func(e sql.Expr) (sql.Expr, error) {
		return rewriteOverAggregate(e, groupIdx, aggIdx)
	}
	for _, item := range stmt.Items {
		re, err := rewrite(item.Expr)
		if err != nil {
			return nil, err
		}
		alias := item.Alias
		if alias == "" {
			// Preserve a friendly output name; the rewritten expression
			// references synthetic __grp_/__agg_ columns.
			switch v := item.Expr.(type) {
			case *sql.ColumnRef:
				alias = v.Name
			case *sql.Call:
				alias = strings.ToLower(v.Name)
			}
		}
		info.items = append(info.items, sql.SelectItem{Expr: re, Alias: alias})
	}
	if stmt.Having != nil {
		re, err := rewrite(stmt.Having)
		if err != nil {
			return nil, err
		}
		info.having = re
	}
	for _, o := range stmt.OrderBy {
		// ORDER BY may reference a select-list alias (ORDER BY n for
		// COUNT(*) AS n); resolve those against the rewritten items.
		if ref, ok := o.Expr.(*sql.ColumnRef); ok && ref.Qualifier == "" {
			resolved := false
			for i, orig := range stmt.Items {
				if strings.EqualFold(orig.Alias, ref.Name) {
					info.orderBy = append(info.orderBy, sql.OrderItem{Expr: info.items[i].Expr, Desc: o.Desc})
					resolved = true
					break
				}
			}
			if resolved {
				continue
			}
		}
		re, err := rewrite(o.Expr)
		if err != nil {
			return nil, err
		}
		info.orderBy = append(info.orderBy, sql.OrderItem{Expr: re, Desc: o.Desc})
	}
	return info, nil
}

// rewriteOverAggregate replaces group-by expressions and aggregate calls
// with references into the HashAggregate's output schema. Any bare column
// reference that survives to a leaf is an error: it is neither grouped nor
// aggregated.
func rewriteOverAggregate(e sql.Expr, groupIdx, aggIdx map[string]int) (sql.Expr, error) {
	if i, ok := groupIdx[sql.ExprString(e)]; ok {
		return &sql.ColumnRef{Name: fmt.Sprintf("__grp_%d", i)}, nil
	}
	if c, ok := e.(*sql.Call); ok {
		if sql.IsAggregate(c.Name) {
			if i, ok := aggIdx[sql.ExprString(c)]; ok {
				return &sql.ColumnRef{Name: fmt.Sprintf("__agg_%d", i)}, nil
			}
		}
	}
	switch v := e.(type) {
	case *sql.Literal:
		return v, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", v)
	case *sql.Binary:
		l, err := rewriteOverAggregate(v.L, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		r, err := rewriteOverAggregate(v.R, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: v.Op, L: l, R: r}, nil
	case *sql.Unary:
		x, err := rewriteOverAggregate(v.X, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		return &sql.Unary{Op: v.Op, X: x}, nil
	case *sql.In:
		x, err := rewriteOverAggregate(v.X, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(v.List))
		for i, item := range v.List {
			if list[i], err = rewriteOverAggregate(item, groupIdx, aggIdx); err != nil {
				return nil, err
			}
		}
		return &sql.In{X: x, List: list, Negate: v.Negate}, nil
	case *sql.Call:
		args := make([]sql.Expr, len(v.Args))
		var err error
		for i, a := range v.Args {
			if args[i], err = rewriteOverAggregate(a, groupIdx, aggIdx); err != nil {
				return nil, err
			}
		}
		return &sql.Call{Name: v.Name, Args: args}, nil
	case *sql.IsNull:
		x, err := rewriteOverAggregate(v.X, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{X: x, Negate: v.Negate}, nil
	case *sql.Like:
		x, err := rewriteOverAggregate(v.X, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		pat, err := rewriteOverAggregate(v.Pattern, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		return &sql.Like{X: x, Pattern: pat, Negate: v.Negate}, nil
	case *sql.Between:
		x, err := rewriteOverAggregate(v.X, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		lo, err := rewriteOverAggregate(v.Lo, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		hi, err := rewriteOverAggregate(v.Hi, groupIdx, aggIdx)
		if err != nil {
			return nil, err
		}
		return &sql.Between{X: x, Lo: lo, Hi: hi, Negate: v.Negate}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression in aggregate query: %T", e)
}
