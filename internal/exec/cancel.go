package exec

import (
	"context"
	"fmt"

	"recdb/internal/types"
)

// wrapChildren rewrites op's child operator links with w applied to each,
// the shared traversal behind Instrument (EXPLAIN ANALYZE) and WithContext
// (query cancellation). Leaves (scans, a Recommend without an outer
// relation) have no children.
func wrapChildren(op Operator, w func(Operator) Operator) {
	switch v := op.(type) {
	case *Filter:
		v.Child = w(v.Child)
	case *Project:
		v.Child = w(v.Child)
	case *NestedLoopJoin:
		v.Left = w(v.Left)
		v.Right = w(v.Right)
	case *HashJoin:
		v.Left = w(v.Left)
		v.Right = w(v.Right)
	case *Sort:
		v.Child = w(v.Child)
	case *Limit:
		v.Child = w(v.Child)
	case *Distinct:
		v.Child = w(v.Child)
	case *HashAggregate:
		v.Child = w(v.Child)
	case *Recommend:
		if v.Outer != nil {
			v.Outer = w(v.Outer)
		}
	}
}

// ctxOp decorates one operator with a context check on every Open and
// Next, so a canceled or deadline-expired query stops between rows even
// deep inside a blocking operator's drain (a Sort or HashAggregate
// filling up in Open checks through its wrapped child).
type ctxOp struct {
	op  Operator
	ctx context.Context
}

// WithContext threads ctx into op's whole tree: every operator is wrapped
// so its Open and Next observe cancellation. A context that can never be
// canceled (ctx.Done() == nil, e.g. context.Background()) returns op
// unchanged, keeping the embedded query path overhead-free.
func WithContext(ctx context.Context, op Operator) Operator {
	if ctx == nil || ctx.Done() == nil {
		return op
	}
	var wrap func(Operator) Operator
	wrap = func(o Operator) Operator {
		if _, ok := o.(*ctxOp); ok {
			return o
		}
		wrapChildren(o, wrap)
		return &ctxOp{op: o, ctx: ctx}
	}
	return wrap(op)
}

// Schema implements Operator.
func (c *ctxOp) Schema() *types.Schema { return c.op.Schema() }

// Open implements Operator, failing fast when the context is already done.
func (c *ctxOp) Open() error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("exec: query interrupted: %w", err)
	}
	return c.op.Open()
}

// Next implements Operator, checking cancellation between rows.
func (c *ctxOp) Next() (types.Row, bool, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("exec: query interrupted: %w", err)
	}
	return c.op.Next()
}

// Close implements Operator; cleanup proceeds regardless of cancellation.
func (c *ctxOp) Close() error { return c.op.Close() }
