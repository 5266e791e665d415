package exec

import (
	"fmt"

	"recdb/internal/expr"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// AggSpec is one aggregate to compute. Arg is nil for COUNT(*).
type AggSpec struct {
	Kind sql.AggKind
	Arg  expr.Compiled
}

type aggState struct {
	count   int64
	sum     float64
	sumInts bool // all inputs so far were integers
	minMax  types.Value
	seen    bool
}

func (st *aggState) add(kind sql.AggKind, v types.Value) error {
	if kind == sql.AggCountStar {
		st.count++
		return nil
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	st.count++
	switch kind {
	case sql.AggCount:
	case sql.AggSum, sql.AggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("exec: SUM/AVG over non-numeric %s", v.Kind())
		}
		if !st.seen {
			st.sumInts = true
		}
		st.sumInts = st.sumInts && v.Kind() == types.KindInt
		st.sum += f
	case sql.AggMin, sql.AggMax:
		if !st.seen {
			st.minMax = v
		} else {
			c, err := types.Compare(v, st.minMax)
			if err != nil {
				return err
			}
			if (kind == sql.AggMin && c < 0) || (kind == sql.AggMax && c > 0) {
				st.minMax = v
			}
		}
	}
	st.seen = true
	return nil
}

func (st *aggState) result(kind sql.AggKind) types.Value {
	switch kind {
	case sql.AggCountStar, sql.AggCount:
		return types.NewInt(st.count)
	case sql.AggSum:
		if !st.seen {
			return types.Null()
		}
		if st.sumInts {
			return types.NewInt(int64(st.sum))
		}
		return types.NewFloat(st.sum)
	case sql.AggAvg:
		if !st.seen {
			return types.Null()
		}
		return types.NewFloat(st.sum / float64(st.count))
	case sql.AggMin, sql.AggMax:
		if !st.seen {
			return types.Null()
		}
		return st.minMax
	}
	return types.Null()
}

// HashAggregate groups its input by the GroupBy expressions and computes
// the aggregate Specs per group. With no GroupBy keys it produces exactly
// one global row (even over empty input, per SQL).
type HashAggregate struct {
	Child   Operator
	GroupBy []expr.Compiled
	Specs   []AggSpec

	schema *types.Schema
	out    []types.Row
	pos    int
}

// NewHashAggregate creates an aggregation whose output schema is the group
// keys followed by one column per aggregate.
func NewHashAggregate(child Operator, groupBy []expr.Compiled, specs []AggSpec, schema *types.Schema) *HashAggregate {
	return &HashAggregate{Child: child, GroupBy: groupBy, Specs: specs, schema: schema}
}

// Schema implements Operator.
func (a *HashAggregate) Schema() *types.Schema { return a.schema }

// Open implements Operator: it drains the child and materializes groups.
func (a *HashAggregate) Open() error {
	rows, err := Collect(a.Child)
	if err != nil {
		return err
	}
	type group struct {
		key    types.Row
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string // deterministic output: first-seen order
	for _, row := range rows {
		key := make(types.Row, len(a.GroupBy))
		for i, g := range a.GroupBy {
			if key[i], err = g(row); err != nil {
				return err
			}
		}
		id := string(types.EncodeRow(nil, key))
		grp := groups[id]
		if grp == nil {
			grp = &group{key: key, states: make([]aggState, len(a.Specs))}
			groups[id] = grp
			order = append(order, id)
		}
		for i, spec := range a.Specs {
			v := types.Null()
			if spec.Arg != nil {
				if v, err = spec.Arg(row); err != nil {
					return err
				}
			}
			if err := grp.states[i].add(spec.Kind, v); err != nil {
				return err
			}
		}
	}
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		// Global aggregate over empty input: one row of empty aggregates.
		grp := &group{states: make([]aggState, len(a.Specs))}
		groups[""] = grp
		order = append(order, "")
	}
	a.out = a.out[:0]
	for _, id := range order {
		grp := groups[id]
		row := make(types.Row, 0, len(a.GroupBy)+len(a.Specs))
		row = append(row, grp.key...)
		for i, spec := range a.Specs {
			row = append(row, grp.states[i].result(spec.Kind))
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

// Next implements Operator.
func (a *HashAggregate) Next() (types.Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	row := a.out[a.pos]
	a.pos++
	return row, true, nil
}

// Close implements Operator.
func (a *HashAggregate) Close() error {
	a.out = nil
	return a.Child.Close()
}

// Distinct suppresses duplicate rows (SELECT DISTINCT).
type Distinct struct {
	Child Operator
	seen  map[string]bool
}

// NewDistinct wraps child with duplicate elimination.
func NewDistinct(child Operator) *Distinct {
	return &Distinct{Child: child}
}

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open() error {
	d.seen = make(map[string]bool)
	return d.Child.Open()
}

// Next implements Operator.
func (d *Distinct) Next() (types.Row, bool, error) {
	for {
		row, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		id := string(types.EncodeRow(nil, row))
		if d.seen[id] {
			continue
		}
		d.seen[id] = true
		return row, true, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Child.Close()
}
