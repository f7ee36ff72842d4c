package gignite

import (
	"context"
	"sync"

	"gignite/internal/plancache"
	"gignite/internal/sql"
)

// Stmt is a prepared SELECT: the statement is parsed, validated,
// optimized, compiled and split into fragments once at Prepare time, and
// each Query execution runs that split plan as it is — skipping parse,
// bind, cost-based optimization and fragmentation entirely. The `?`
// parameter values reach only kernels the execution compiles for itself,
// for the operators whose expressions hold a placeholder, and an adaptive
// execution's rewrites are decisions kept beside the plan: nothing an
// execution does writes the shared plan. The plan's text (digest,
// operator lines, column names) is rendered by the first execution and
// shared by later ones: arguments appear in it as their placeholders. A Stmt is safe for concurrent Query calls.
//
// When the engine's plan cache is enabled the Stmt shares its entries, so
// an inline Exec of the same (digest-normalized) text also hits the
// prepared plan and vice versa. With the cache disabled the Stmt retains
// its own plan. Either way the plan is replanned automatically when the
// catalog version moves (DDL, CREATE INDEX, ANALYZE).
type Stmt struct {
	e      *Engine
	src    string
	sel    *sql.SelectStmt
	digest uint64

	mu    sync.Mutex
	local *plancache.Entry // retained split when the engine cache is disabled
}

// Prepare parses and plans a SELECT once for repeated execution.
// Parameter placeholders are written `?` and bound positionally at Query
// time; each placeholder's type is inferred from its comparison context
// at bind time, and arguments are coerced to it (or passed through when
// no hint was derivable).
func (e *Engine) Prepare(query string) (*Stmt, error) {
	if err := e.beginOp(); err != nil {
		return nil, err
	}
	defer e.endOp()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	s := &Stmt{e: e, src: query, sel: sel, digest: sel.Digest}
	// Plan eagerly so Prepare surfaces binding/optimization errors and
	// Query's first call already skips planning.
	if _, _, err := s.entry(); err != nil {
		return nil, err
	}
	return s, nil
}

// entry resolves the statement's plan, replanning when the catalog
// version has moved since it was built. skipped reports whether a
// retained plan was reused.
func (s *Stmt) entry() (*plancache.Entry, bool, error) {
	e := s.e
	version := e.catalog.Version()
	if e.plans != nil {
		return e.plans.Get(s.digest, version, func() (*plancache.Entry, error) {
			return e.buildEntry(s.sel)
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.local != nil && s.local.Version == version {
		return s.local, true, nil
	}
	entry, err := e.buildEntry(s.sel)
	if err != nil {
		return nil, false, err
	}
	s.local = entry
	return entry, false, nil
}

// Query executes the prepared statement with the given parameter values
// (one per `?`, in order).
func (s *Stmt) Query(args ...Value) (*Result, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation (see Engine.ExecContext).
func (s *Stmt) QueryContext(ctx context.Context, args ...Value) (*Result, error) {
	if err := s.e.beginOp(); err != nil {
		return nil, err
	}
	defer s.e.endOp()
	res, _, err := s.e.run(ctx, s.sel, s.src, args, s.entry)
	return res, err
}

// SQL returns the statement text the Stmt was prepared from.
func (s *Stmt) SQL() string { return s.src }

// NumParams returns the number of `?` placeholders in the statement.
func (s *Stmt) NumParams() int { return s.sel.Params }
