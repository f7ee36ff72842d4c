package gignite

import (
	"gignite/internal/fragment"
	"gignite/internal/logical"
	"gignite/internal/sql"
	"gignite/internal/volcano"
)

// The two halves of Engine.buildEntry's planning, for the package's
// planner tests and benchmarks: they time, count and inspect the Volcano
// stage on exactly the plan and planner a statement would get.

// BindLogical parses and binds a SELECT and runs the stage-1 rules.
func (e *Engine) BindLogical(query string) (logical.Node, error) {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	lp, _, err := e.bindLogical(sel, e.rulesConfig())
	return lp, err
}

// NewPlanner builds the planner (and estimator) one statement would use.
func (e *Engine) NewPlanner() *volcano.Planner { return e.newPlanner() }

// Compiled is how many expressions the execution behind r compiled.
func (r *Result) Compiled() int { return r.compiled }

// CachedSplit is the split plan every execution of s runs: its plan-cache
// entry's, or the statement's own with the cache off.
func (s *Stmt) CachedSplit() *fragment.Plan {
	entry, _, err := s.entry()
	if err != nil {
		panic(err)
	}
	return entry.Split
}
