// Package passes registers the RecDB analyzer suite.
package passes

import (
	"recdb/internal/analysis"
	"recdb/internal/analysis/passes/closecheck"
	"recdb/internal/analysis/passes/deferloop"
	"recdb/internal/analysis/passes/errwrap"
	"recdb/internal/analysis/passes/locksafe"
	"recdb/internal/analysis/passes/nopanic"
	"recdb/internal/analysis/passes/pinunpin"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		deferloop.Analyzer,
		errwrap.Analyzer,
		locksafe.Analyzer,
		nopanic.Analyzer,
		pinunpin.Analyzer,
	}
}
