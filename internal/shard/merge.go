package shard

import (
	"recdb/client"
	"recdb/internal/types"
)

// result is one statement answer ready to stream to the client: a row
// set (reads) — one shard's answer as it arrived, or rows merged from
// several — or an affected count (writes).
type result struct {
	relay    *client.Rows
	cols     []string
	strategy string
	rows     []types.Row
	affected int64
}

// mergeParts combines per-shard read answers. Each shard answers in the
// statement's own ORDER BY already, so an ordered merge — not a re-sort
// — recovers the global order; without merge keys (or when a key column
// is missing from the result) parts concatenate in shard order. LIMIT
// and OFFSET apply to the merged stream, so a cross-shard top-k keeps
// exactly k rows no matter how many shards contributed.
func mergeParts(parts []*client.Rows, spec *MergeSpec) result {
	var res result
	for _, p := range parts {
		if p != nil {
			res.cols, res.strategy = p.Columns(), p.Strategy()
			break
		}
	}

	limit, offset := int64(-1), int64(0)
	if spec != nil {
		limit = spec.Limit
		if spec.Offset > 0 {
			offset = spec.Offset
		}
	}

	var keys []resolvedKey
	ordered := false
	if spec != nil && len(spec.Keys) > 0 {
		keys, ordered = resolveKeys(spec.Keys, res.cols)
	}

	if !ordered {
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, row := range p.All() {
				if offset > 0 {
					offset--
					continue
				}
				res.rows = append(res.rows, row)
				if limit >= 0 && int64(len(res.rows)) >= limit {
					return res
				}
			}
		}
		return res
	}

	// Ordered k-way merge. Shard counts are single digits, so a linear
	// scan over the heads beats heap bookkeeping; ties take the lowest
	// shard index, making the merged order deterministic.
	heads := make([]int, len(parts))
	for {
		best := -1
		var bestRow types.Row
		for i, p := range parts {
			if p == nil || heads[i] >= p.Len() {
				continue
			}
			row := p.All()[heads[i]]
			if best < 0 || compareRows(row, bestRow, keys) < 0 {
				best, bestRow = i, row
			}
		}
		if best < 0 {
			return res
		}
		heads[best]++
		if offset > 0 {
			offset--
			continue
		}
		res.rows = append(res.rows, bestRow)
		if limit >= 0 && int64(len(res.rows)) >= limit {
			return res
		}
	}
}
