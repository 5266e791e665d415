// Package server is recdb-server's network serving layer: it exposes an
// embedded recdb.DB over TCP speaking the wire protocol. The protocol
// side — accept loop, sessions, pipelining, timeouts, drain, metrics —
// is the shared front end (internal/frontend); this package is its
// engine backend: each connection runs its statements through its own
// recdb.Session, so BEGIN/COMMIT/ROLLBACK span requests and a dropped
// client's open transaction rolls back, and Shutdown lands a final
// checkpoint after the drain when the database has a durable home.
package server

import (
	"context"
	"errors"
	"fmt"

	"recdb"
	"recdb/internal/frontend"
	"recdb/internal/metrics"
)

// Options tunes a Server: the shared front-end options, unchanged.
type Options = frontend.Options

// Server serves one recdb.DB to network clients.
type Server struct {
	*frontend.Frontend
	db *recdb.DB
}

// New wraps db in a Server. The server records into db's own metrics
// registry (as server.*), so `\metrics` and the HTTP exporter see
// serving-layer instruments next to engine ones.
func New(db *recdb.DB, opts Options) *Server {
	if opts.Name == "" {
		opts.Name = "recdb"
	}
	return &Server{
		Frontend: frontend.New(engine{db}, db.Engine().Metrics(), "server", "server", opts),
		db:       db,
	}
}

// Shutdown drains the front end (see frontend.Frontend.Shutdown), then
// checkpoints the database if it has a durable home. The checkpoint
// runs even when ctx cut the drain short.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.Frontend.Shutdown(ctx)
	if errors.Is(drainErr, frontend.ErrAlreadyShutDown) {
		return drainErr
	}
	if info := s.db.Durability(); info.Attached {
		if err := s.db.SaveTo(info.Dir); err != nil {
			return fmt.Errorf("server: final checkpoint: %w", err)
		}
	}
	return drainErr
}

// ServeMetrics starts the HTTP exporter for db's registry on addr and
// returns the bound address and a stop function.
func ServeMetrics(db *recdb.DB, addr string) (string, func() error, error) {
	return frontend.ServeMetrics(func() metrics.Snapshot { return db.Engine().Metrics().Snapshot() }, addr)
}

// engine adapts recdb.DB to the front end's Backend.
type engine struct{ db *recdb.DB }

func (e engine) Open() frontend.Session { return session{e.db.NewSession()} }

// session is one connection's statement session; closing it rolls back
// a transaction the client left open.
type session struct{ s *recdb.Session }

func (c session) Query(ctx context.Context, sql string) (frontend.Rows, error) {
	rows, err := c.s.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (c session) Exec(ctx context.Context, sql string) (int64, error) {
	res, err := c.s.ExecContext(ctx, sql)
	return res.RowsAffected, err
}

func (c session) Close() error { return c.s.Close() }
