package plan

import (
	"fmt"
	"time"

	"recdb/internal/exec"
)

// DescribePlan renders an operator tree as indented EXPLAIN lines. A tree
// wrapped by exec.Instrument (EXPLAIN ANALYZE) renders the same shape with
// an "(actual ...)" annotation per operator: rows emitted, Open loops,
// inclusive wall time, and inclusive buffer-pool hits/misses.
func DescribePlan(op exec.Operator) []string {
	var out []string
	describe(op, 0, &out)
	return out
}

func describe(op exec.Operator, depth int, out *[]string) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	node := op
	suffix := ""
	if a, ok := op.(*exec.Analyzed); ok {
		node = a.Op
		suffix = analyzeSuffix(a)
	}
	*out = append(*out, indent+nodeLine(node)+suffix)
	for _, c := range children(node) {
		describe(c, depth+1, out)
	}
}

// analyzeSuffix renders one operator's runtime counters. Rows, time, and
// buffer counts are totals across all loops; time and buffers are
// inclusive of the operator's subtree (Postgres-style), while self is the
// exclusive share — inclusive time minus the direct children's inclusive
// time — which pinpoints the operator that actually burned the cycles.
func analyzeSuffix(a *exec.Analyzed) string {
	childNanos := int64(0)
	for _, c := range children(a.Op) {
		if ca, ok := c.(*exec.Analyzed); ok {
			childNanos += ca.Nanos
		}
	}
	self := a.Nanos - childNanos
	if self < 0 {
		// Clock skew between nested time.Now pairs can nudge the sum of
		// child inclusives past the parent's; clamp rather than render a
		// negative duration.
		self = 0
	}
	return fmt.Sprintf(" (actual rows=%d loops=%d time=%s self=%s buffers hit=%d miss=%d)",
		a.Rows, a.Loops, time.Duration(a.Nanos), time.Duration(self), a.Reads-a.Misses, a.Misses)
}

// children returns op's child operators in display order.
func children(op exec.Operator) []exec.Operator {
	switch v := op.(type) {
	case *exec.Filter:
		return []exec.Operator{v.Child}
	case *exec.Project:
		return []exec.Operator{v.Child}
	case *exec.NestedLoopJoin:
		return []exec.Operator{v.Left, v.Right}
	case *exec.HashJoin:
		return []exec.Operator{v.Left, v.Right}
	case *exec.Sort:
		return []exec.Operator{v.Child}
	case *exec.Limit:
		return []exec.Operator{v.Child}
	case *exec.Distinct:
		return []exec.Operator{v.Child}
	case *exec.HashAggregate:
		return []exec.Operator{v.Child}
	case *exec.Recommend:
		if v.Outer != nil {
			return []exec.Operator{v.Outer}
		}
	}
	return nil
}

// nodeLine renders one operator's own describe line (no children).
func nodeLine(op exec.Operator) string {
	switch v := op.(type) {
	case *exec.SeqScan:
		return fmt.Sprintf("SeqScan on %s as %s (%d pages)", v.Table.Name, v.Qualifier, v.Table.Heap.NumPages())
	case *exec.ModelScan:
		return fmt.Sprintf("ModelScan on %s as %s (%d rows)", v.Relation.Name, v.Qualifier, v.Relation.Len())
	case *exec.IndexScan:
		return fmt.Sprintf("IndexScan on %s as %s using %s", v.Table.Name, v.Qualifier, v.Index.Name)
	case *exec.SpatialIndexScan:
		kind := "ST_Contains"
		if v.Pred == exec.SpatialDWithin {
			kind = "ST_DWithin"
		}
		return fmt.Sprintf("SpatialIndexScan on %s as %s using %s (%s)", v.Table.Name, v.Qualifier, v.Index.Name, kind)
	case *exec.Filter:
		return "Filter"
	case *exec.Project:
		return fmt.Sprintf("Project (%d columns)", v.Schema().Len())
	case *exec.NestedLoopJoin:
		return "NestedLoopJoin"
	case *exec.HashJoin:
		return "HashJoin"
	case *exec.Sort:
		return fmt.Sprintf("Sort (%d keys)", len(v.Keys))
	case *exec.Limit:
		if v.Skip > 0 {
			return fmt.Sprintf("Limit %d offset %d", v.N, v.Skip)
		}
		return fmt.Sprintf("Limit %d", v.N)
	case *exec.Distinct:
		return "Distinct"
	case *exec.HashAggregate:
		return fmt.Sprintf("HashAggregate (%d group keys, %d aggregates)", len(v.GroupBy), len(v.Specs))
	case *exec.Recommend:
		return recommendLine(v)
	default:
		return fmt.Sprintf("%T", op)
	}
}

// recommendLine renders the RECOMMEND operator under its paper name, with
// what its candidate source restricts and, when the planner fused ORDER BY
// ratingval DESC LIMIT into it, the per-user row target k.
func recommendLine(v *exec.Recommend) string {
	users := "all users"
	if v.Users != nil {
		users = fmt.Sprintf("%d users", len(v.Users))
	}
	k := ""
	if v.K > 0 {
		k = fmt.Sprintf(", k %d", v.K)
	}
	switch v.Source() {
	case exec.SourceRecTree:
		return fmt.Sprintf("IndexRecommend on RecScoreIndex (%s%s)", users, k)
	case exec.SourceIVF:
		line := fmt.Sprintf("VectorRecommend on IVF (%s, %d centroids, nprobe %d%s)",
			users, v.IVF.NumCentroids(), v.EffectiveNProbe(), k)
		if v.Mode != "" {
			// Run stats: rendered by EXPLAIN ANALYZE once the probe ran.
			line += fmt.Sprintf(" (probed %d, candidates %d, mode %s)", v.Probed, v.Candidates, v.Mode)
		}
		return line
	case exec.SourceOuter:
		return fmt.Sprintf("JoinRecommend [%s] (%s%s)", v.Store.Algo, users, k) + scoringSide(v)
	}
	items := "all items"
	if v.Items != nil {
		items = fmt.Sprintf("%d items", len(v.Items))
	}
	return fmt.Sprintf("%s [%s] (%s, %s%s)", v.Strategy(), v.Store.Algo, users, items, k) + scoringSide(v)
}

// scoringSide renders, once an item-based operator ran, how many of the
// users it scored were scored from the user's side (rec.Scorer).
func scoringSide(v *exec.Recommend) string {
	if !v.Store.Algo.ItemBased() || v.Scored == 0 {
		return ""
	}
	return fmt.Sprintf(" (user-driven %d/%d)", v.UserDriven, v.Scored)
}
