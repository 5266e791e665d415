package exec

import (
	"fmt"

	"recdb/internal/catalog"
	"recdb/internal/geo"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// SpatialPredicate selects the exact check a SpatialIndexScan applies to
// R-tree candidates.
type SpatialPredicate int

// The supported spatial predicates.
const (
	// SpatialContainsQuery: the query geometry contains the row's geometry
	// (ST_Contains(query, col)).
	SpatialContainsQuery SpatialPredicate = iota
	// SpatialContainsRow: the row's geometry contains the query geometry
	// (ST_Contains(col, query)).
	SpatialContainsRow
	// SpatialDWithin: the row's geometry lies within Dist of the query
	// geometry (ST_DWithin in either argument order).
	SpatialDWithin
)

// SpatialIndexScan reads a table through its R-tree: the index prunes by
// bounding box and each candidate row is re-verified against the exact
// predicate, the standard filter-and-refine strategy of spatial databases.
type SpatialIndexScan struct {
	Table     *catalog.Table
	Index     *catalog.Index
	Qualifier string
	Query     geo.Geometry
	Pred      SpatialPredicate
	Dist      float64 // SpatialDWithin only

	schema *types.Schema
	rids   []storage.RID
	rows   ridReader
}

// NewSpatialIndexScan creates a filter-and-refine scan.
func NewSpatialIndexScan(table *catalog.Table, index *catalog.Index, qualifier string,
	query geo.Geometry, pred SpatialPredicate, dist float64) *SpatialIndexScan {
	return &SpatialIndexScan{
		Table: table, Index: index, Qualifier: qualifier,
		Query: query, Pred: pred, Dist: dist,
		schema: table.Schema.WithQualifier(qualifier),
	}
}

// Schema implements Operator.
func (s *SpatialIndexScan) Schema() *types.Schema { return s.schema }

// Open implements Operator: collect R-tree candidates.
func (s *SpatialIndexScan) Open() error {
	if s.Index.Spatial == nil {
		return fmt.Errorf("exec: spatial scan over non-spatial index %q", s.Index.Name)
	}
	s.rids = s.rids[:0]
	collect := func(rid storage.RID) bool {
		s.rids = append(s.rids, rid)
		return true
	}
	// Candidates are collected under the table's read lock so concurrent
	// writers cannot mutate the R-tree mid-walk.
	if s.Pred == SpatialDWithin {
		s.Table.SearchIndexWithin(s.Index, s.Query, s.Dist, collect)
	} else {
		s.Table.SearchIndexContaining(s.Index, s.Query, collect)
	}
	s.rows.open(s.Table, s.rids, nil)
	return nil
}

// Next implements Operator: fetch and refine. A candidate whose tuple
// vanished between Open and here is skipped, not an error.
func (s *SpatialIndexScan) Next() (types.Row, bool, error) {
	for {
		row, ok, err := s.rows.next()
		if err != nil || !ok {
			return nil, false, err
		}
		v := row[s.Index.Column]
		if v.Kind() != types.KindGeometry || v.Geometry() == nil {
			continue
		}
		g := v.Geometry()
		match := false
		switch s.Pred {
		case SpatialContainsQuery:
			match = geo.Contains(s.Query, g)
		case SpatialContainsRow:
			match = geo.Contains(g, s.Query)
		case SpatialDWithin:
			match = geo.DWithin(g, s.Query, s.Dist)
		}
		if match {
			return row, true, nil
		}
	}
}

// Close implements Operator.
func (s *SpatialIndexScan) Close() error {
	s.rids, s.rows = nil, ridReader{}
	return nil
}
