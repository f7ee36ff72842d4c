package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"time"

	"gignite"
	"gignite/driver"
	"gignite/internal/server"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
	"gignite/internal/types"
	"gignite/internal/wire"
)

// stmtDeadline bounds one statement; exceeding it is a failed operation.
const stmtDeadline = 10 * time.Second

// systemLifetime bounds everything one system is asked to do, so that a
// hung statement ends the run instead of outliving the 180 s a run may
// take. Statements share this one context and nothing cancels it while a
// connection is in use: the driver's cancel watcher can lose the race
// between "rows closed" and "context cancelled" and send a stale Cancel
// frame that kills the *next* statement, which a per-statement
// context.WithTimeout + defer cancel() provokes about once per 700
// statements on two cores.
const systemLifetime = 170 * time.Second

// sites is the cluster size of every engine: the paper's headline IC+M
// configuration on four sites.
const sites = 4

// system is one loaded engine set, driven the way its workload says.
type system struct {
	w       *workload
	ctx     context.Context
	cancel  context.CancelFunc
	engines map[string]*gignite.Engine
	// local holds in-process prepared statements: the measured path for
	// modePrepared, and for the served modes the in-process twin that
	// supplies Modeled/BytesShipped and the server-overhead baseline.
	local []*gignite.Stmt

	srv      *server.Server
	serveErr chan error
	db       *sql.DB
	remote   []*sql.Stmt // modeServedPrepared

	// rejects counts statements answered with the ROADMAP item-1
	// pipelining error and re-issued.
	rejects int
}

// openSystem is the set-up a user pays before the first statement: open
// the engines, generate and load data, build indexes, collect
// statistics, start the server and connect, and prepare statements.
func openSystem(w *workload, smoke bool) (*system, error) {
	s := &system{w: w, engines: make(map[string]*gignite.Engine)}
	s.ctx, s.cancel = context.WithTimeout(context.Background(), systemLifetime)
	for _, schema := range []string{"tpch", "ssb"} {
		sf := w.sf(schema, smoke)
		if sf == 0 {
			continue
		}
		e := gignite.Open(gignite.WithPreset(gignite.ICPlusM, sites), gignite.WithPlanCache(w.PlanCache))
		s.engines[schema] = e
		load := tpch.Setup
		if schema == "ssb" {
			load = ssb.Setup
		}
		if err := load(e, sf); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// connect prepares the measured path: statements in-process, or a server
// plus one database/sql connection.
func (s *system) connect() error {
	if !s.w.Mode.served() {
		if s.w.Mode == modePrepared {
			return s.prepareLocal()
		}
		return nil
	}
	s.srv = server.New(s.engines["tpch"], server.Config{})
	if err := s.srv.Listen(); err != nil {
		return err
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve() }()
	s.db = sql.OpenDB(&driver.Connector{Addr: s.srv.Addr().String()})
	s.db.SetMaxOpenConns(1)
	if s.w.Mode == modeServedPrepared {
		for _, st := range s.w.Stmts {
			ps, err := s.db.PrepareContext(context.Background(), st.SQL)
			if err != nil {
				return fmt.Errorf("prepare %s over the wire: %w", st.ID, err)
			}
			s.remote = append(s.remote, ps)
		}
	}
	return nil
}

// prepareLocal prepares every statement in-process (idempotent).
func (s *system) prepareLocal() error {
	if s.local != nil {
		return nil
	}
	for _, st := range s.w.Stmts {
		ps, err := s.engines[st.Schema].Prepare(st.SQL)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", st.ID, err)
		}
		s.local = append(s.local, ps)
	}
	return nil
}

// close stops the server and waits for it, then closes the engines.
func (s *system) close() {
	s.cancel()
	if s.db != nil {
		_ = s.db.Close() // best effort: the sessions are torn down with the server below
	}
	if s.srv != nil && s.serveErr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // a drain that times out force-closes the sessions
		cancel()
		<-s.serveErr
	}
	for _, e := range s.engines {
		_ = e.Close() // nothing is in flight: the client loop has returned
	}
}

// inProcess runs statement i inside the process, whatever the workload's
// mode: the measured path of the in-process workloads, and the engine's
// own Result (Modeled, Stats, rows) for the served ones.
func (s *system) inProcess(ctx context.Context, i int, args []gignite.Value) (*gignite.Result, error) {
	if s.w.Mode == modeAdhoc {
		st := &s.w.Stmts[i]
		return s.engines[st.Schema].QueryContext(ctx, st.SQL)
	}
	if s.w.Mode == modeServedText {
		// The wire Query frame lands in Engine.ExecContext.
		st := &s.w.Stmts[i]
		return s.engines[st.Schema].ExecContext(ctx, st.SQL)
	}
	if err := s.prepareLocal(); err != nil {
		return nil, err
	}
	return s.local[i].QueryContext(ctx, args...)
}

// run executes statement i the way the workload measures it and returns
// its row count, plus the rows themselves when keep is set.
func (s *system) run(i int, args []gignite.Value, keep bool) (int, []types.Row, error) {
	if !s.w.Mode.served() {
		res, err := s.inProcess(s.ctx, i, args)
		if err != nil {
			return 0, nil, err
		}
		return len(res.Rows), res.Rows, nil
	}
	n, rows, err := s.overWire(s.ctx, i, args, keep)
	if err != nil && n == 0 && isPipeliningReject(err) {
		// ROADMAP item 1: the session wrote Done before clearing busy, so
		// the next statement was refused and the session closed. Nothing
		// had arrived, so re-issue once; database/sql reconnects and
		// re-prepares, and a fresh session cannot hit the race. The
		// caller's latency spans both attempts.
		s.rejects++
		n, rows, err = s.overWire(s.ctx, i, args, keep)
	}
	return n, rows, err
}

// isPipeliningReject recognises the two ways the stale busy flag answers
// the next frame: "query pipelining is not supported" for Execute/Query,
// "Parse while a query is in flight" when database/sql re-prepares first.
func isPipeliningReject(err error) bool {
	var se *wire.ServerError
	return errors.As(err, &se) && se.Code == wire.CodeProtocol &&
		(strings.Contains(se.Message, "pipelining") || strings.Contains(se.Message, "in flight"))
}

// overWire runs statement i through database/sql and scans every row.
func (s *system) overWire(ctx context.Context, i int, args []gignite.Value, keep bool) (int, []types.Row, error) {
	var (
		rows *sql.Rows
		err  error
	)
	if s.w.Mode == modeServedPrepared {
		rows, err = s.remote[i].QueryContext(ctx, sqlArgs(args)...)
	} else {
		rows, err = s.db.QueryContext(ctx, s.w.Stmts[i].SQL)
	}
	if err != nil {
		return 0, nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return 0, nil, err
	}
	vals := make([]any, len(cols))
	dest := make([]any, len(cols))
	for c := range vals {
		dest[c] = &vals[c]
	}
	n := 0
	var out []types.Row
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return n, out, err
		}
		n++
		if keep {
			out = append(out, engineRow(vals))
		}
	}
	return n, out, rows.Err()
}

func sqlArgs(args []gignite.Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a.I // lookup keys are the only parameters
	}
	return out
}

// engineRow maps scanned database/sql values back onto engine values so
// served results can be compared with the reference rows.
func engineRow(vals []any) types.Row {
	row := make(types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			row[i] = types.Null
		case int64:
			row[i] = types.NewInt(x)
		case float64:
			row[i] = types.NewFloat(x)
		case string:
			row[i] = types.NewString(x)
		case bool:
			row[i] = types.NewBool(x)
		case time.Time:
			row[i] = types.NewDate(x.Unix() / 86400)
		default:
			row[i] = types.NewString(fmt.Sprint(x))
		}
	}
	return row
}
