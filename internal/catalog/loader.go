package catalog

import (
	"fmt"

	"recdb/internal/types"
)

// Loader builds one table off to the side, in bulk: rows are taken in
// arrival order and only encoded and remembered; Finish appends them to the
// heap a page at a time and builds every index bottom-up from the column
// values it collected as the rows went by — no per-row lock, pin or tree
// descent, no re-scan of the heap. The table is in no catalog generation
// until Catalog.Publish puts it there, so no reader ever sees it partly
// filled. RIDs, heap contents and index order are exactly those a loop of
// Table.Insert (and CreateIndex) on an empty table would have produced.
//
// A Loader is for one goroutine.
type Loader struct {
	t      *Table
	rows   int         // expected row count
	runs   []*indexRun // one per index of the table
	tuples [][]byte    // each row's encoding, cut from a chunk
	chunk  []byte      // the chunk rows are being encoded into
}

// loadChunk is the size of the buffers a Loader encodes rows into, back to
// back: a fresh chunk is started when a row does not fit the current one,
// so no buffer is ever regrown and copied, and a row — at most a page —
// wastes at most a few percent of a chunk.
const loadChunk = 256 << 10

// NewLoader starts loading a table that CreateTable(name, schema, pkCol)
// would have created empty. rows is how many rows the caller expects to
// add; it sizes the load's buffers and may be off, or 0.
func (c *Catalog) NewLoader(name string, schema *types.Schema, pkCol, rows int) (*Loader, error) {
	t, err := c.newTable(name, schema, pkCol)
	if err != nil {
		return nil, err
	}
	l := &Loader{t: t, rows: rows, tuples: make([][]byte, 0, rows)}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.indexes { // the primary-key index, if any
		l.runs = append(l.runs, newIndexRun(idx, rows))
	}
	return l, nil
}

// Index adds a secondary index on the named column, built with the load.
// It must be called before the first Add.
func (l *Loader) Index(name, column string) error {
	if len(l.tuples) > 0 {
		return fmt.Errorf("catalog: index %q declared after %d rows were loaded", name, len(l.tuples))
	}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	idx, key, err := l.t.newIndexLocked(name, column)
	if err != nil {
		return err
	}
	l.t.indexes[key] = idx
	l.runs = append(l.runs, newIndexRun(idx, l.rows))
	return nil
}

// Add validates row as Table.Insert would and takes it as the table's next
// row. It keeps no reference to row, so the caller may reuse it.
func (l *Loader) Add(row types.Row) error {
	if err := l.t.checkRow(row); err != nil {
		return err
	}
	start := len(l.chunk)
	enc := types.EncodeRow(l.chunk, row)
	if cap(enc) != cap(l.chunk) {
		// The row outgrew the chunk: encode it again into a fresh one. The
		// rows already cut from the old chunk keep it alive until Finish.
		start = 0
		enc = types.EncodeRow(make([]byte, 0, max(loadChunk, len(enc))), row)
	}
	l.chunk = enc
	l.tuples = append(l.tuples, enc[start:len(enc):len(enc)])
	for _, run := range l.runs {
		run.add(row[run.idx.Column])
	}
	return nil
}

// Finish stores the rows and builds the indexes, and returns the table,
// whole but unpublished. A duplicate primary key fails here. The Loader
// must not be used afterwards.
func (l *Loader) Finish() (*Table, error) {
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	rids, err := l.t.Heap.AppendTuples(l.tuples)
	if err != nil {
		return nil, err
	}
	for _, run := range l.runs {
		if err := run.finish(rids); err != nil {
			return nil, err
		}
	}
	return l.t, nil
}
