// Package exec implements the volcano-style (iterator-model) query
// executor: the classic relational operators (scan, filter, project, join,
// sort, limit) and the paper's recommendation-aware operators (§IV) —
// RECOMMEND (Algorithms 1-2), FILTERRECOMMEND (predicate pushdown into
// prediction), JOINRECOMMEND (outer-relation-driven prediction),
// INDEXRECOMMEND (Algorithm 3 over the RecScoreIndex) and the IVF vector
// probe — as one Recommend operator with five candidate sources. It is
// non-blocking where the paper's operators are, so it composes with the
// rest of the pipeline exactly as described in §IV-B.
package exec

import (
	"recdb/internal/types"
)

// Operator is a volcano-model query operator. The contract is
// Open → Next* → Close; Next returns ok=false at end of stream.
type Operator interface {
	// Schema describes the rows Next produces.
	Schema() *types.Schema
	// Open prepares the operator (and its children) for iteration.
	Open() error
	// Next produces the next row; ok=false means the stream is exhausted.
	Next() (row types.Row, ok bool, err error)
	// Close releases resources. It must be safe to call after an error.
	Close() error
}

// Collect drains op (Open/Next/Close) and returns all rows. It is used by
// statement execution and tests. The operator is closed on every path: an
// Open that fails half-way (a join whose build side errors, a Recommend
// whose outer relation errors) has already opened children, and their
// snapshots stay pinned until Close.
func Collect(op Operator) ([]types.Row, error) {
	defer op.Close()
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out []types.Row
	if n := rowsLeft(op); n > 0 {
		out = make([]types.Row, 0, n)
	}
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// bounded is an operator that can bound the rows it has still to return,
// once open: an index scan knows its candidates, and the operators that
// return exactly one row per child row (a projection, the context and
// analyze wrappers) pass its bound on. A filter does not: its bound would
// be its child's, however few rows it passes. Collect and Project size
// their arrays by it.
type bounded interface {
	rowsLeft() int
}

// rowsLeft returns op's bound on the rows it has still to return, or -1
// when it has none.
func rowsLeft(op Operator) int {
	if b, ok := op.(bounded); ok {
		return b.rowsLeft()
	}
	return -1
}
