package client

import "recdb/internal/wire"

// RolePassesForTest reports how many times a caller of c has handed the
// reader role on to another caller still waiting for its answer.
func RolePassesForTest(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.passes
}

// RowsFromBatchesForTest builds the Rows a query answered with the given
// RowBatch payloads would make: each is checked, as the reader checks it,
// and its tuples kept encoded until the first row is asked for.
func RowsFromBatchesForTest(payloads ...[]byte) (*Rows, error) {
	r := &Rows{pos: -1}
	for _, p := range payloads {
		_, n, tuples, err := wire.CheckRowBatch(p)
		if err != nil {
			return nil, err
		}
		r.add(tuples, n)
	}
	return r, nil
}
