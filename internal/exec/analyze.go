package exec

import (
	"time"

	"recdb/internal/storage"
	"recdb/internal/types"
)

// Analyzed decorates one operator with EXPLAIN ANALYZE accounting: actual
// rows emitted, Open loops, inclusive wall time, and inclusive buffer-pool
// reads/misses attributed while the operator (and therefore its subtree)
// was on the stack. The decorator exists only in analyze mode — normal
// query execution never allocates one — so the ordinary Next() path stays
// instrumentation-free.
type Analyzed struct {
	// Op is the wrapped operator. Its child fields are themselves wrapped
	// by Instrument, so the tree alternates Analyzed -> concrete -> ...
	Op Operator

	stats *storage.Stats

	// Loops counts Open calls (a join rescans its inner side once per
	// outer row, so Rows and Nanos are totals across all loops).
	Loops int64
	// Rows counts rows emitted across all loops.
	Rows int64
	// Nanos is inclusive wall time spent inside Open/Next/Close of this
	// subtree.
	Nanos int64
	// Reads and Misses are inclusive buffer-pool page fetches and disk
	// reads observed while this subtree was executing (hits = Reads -
	// Misses).
	Reads, Misses int64
}

// Instrument wraps op and every operator below it in *Analyzed recorders,
// rewriting child links in place. stats is the engine's shared buffer-pool
// accounting; nil disables the buffer columns (rows and time still
// record). The returned root is what the engine executes and what
// plan.DescribePlan renders with actual-row annotations.
func Instrument(op Operator, stats *storage.Stats) *Analyzed {
	if a, ok := op.(*Analyzed); ok {
		return a
	}
	instrumentChildren(op, stats)
	return &Analyzed{Op: op, stats: stats}
}

// instrumentChildren rewrites op's child operator fields to wrapped
// versions via the shared traversal in cancel.go.
func instrumentChildren(op Operator, stats *storage.Stats) {
	wrapChildren(op, func(c Operator) Operator { return Instrument(c, stats) })
}

// begin snapshots the clock and buffer counters before a wrapped call.
func (a *Analyzed) begin() (time.Time, int64, int64) {
	var r, m int64
	if a.stats != nil {
		r = a.stats.PageReads.Load()
		m = a.stats.PageMisses.Load()
	}
	return time.Now(), r, m
}

// end accrues the inclusive deltas since begin.
func (a *Analyzed) end(start time.Time, r0, m0 int64) {
	a.Nanos += int64(time.Since(start))
	if a.stats != nil {
		a.Reads += a.stats.PageReads.Load() - r0
		a.Misses += a.stats.PageMisses.Load() - m0
	}
}

// Schema implements Operator.
func (a *Analyzed) Schema() *types.Schema { return a.Op.Schema() }

// Open implements Operator, counting one loop.
func (a *Analyzed) Open() error {
	a.Loops++
	start, r0, m0 := a.begin()
	err := a.Op.Open()
	a.end(start, r0, m0)
	return err
}

// Next implements Operator, counting emitted rows.
func (a *Analyzed) Next() (types.Row, bool, error) {
	start, r0, m0 := a.begin()
	row, ok, err := a.Op.Next()
	a.end(start, r0, m0)
	if ok && err == nil {
		a.Rows++
	}
	return row, ok, err
}

// Close implements Operator.
func (a *Analyzed) Close() error {
	start, r0, m0 := a.begin()
	err := a.Op.Close()
	a.end(start, r0, m0)
	return err
}

func (a *Analyzed) rowsLeft() int { return rowsLeft(a.Op) }
