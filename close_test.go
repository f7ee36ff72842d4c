package gignite

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gignite/internal/types"
)

// TestCloseRejectsNewWork checks every entry point returns the typed
// error after Close, and that double-Close is itself a typed error.
func TestCloseRejectsNewWork(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := e.Close(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("double Close: want ErrEngineClosed, got %v", err)
	}
	if _, err := e.Exec(`CREATE TABLE x (a BIGINT PRIMARY KEY)`); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Exec after Close: want ErrEngineClosed, got %v", err)
	}
	if _, err := e.Query(`SELECT id FROM emp`); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Query after Close: want ErrEngineClosed, got %v", err)
	}
	if _, err := e.Prepare(`SELECT id FROM emp WHERE id = ?`); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Prepare after Close: want ErrEngineClosed, got %v", err)
	}
	for name, call := range map[string]func() error{
		"Explain":        func() error { _, err := e.Explain(`SELECT id FROM emp`); return err },
		"LoadTable":      func() error { return e.LoadTable("emp", nil) },
		"Analyze":        e.Analyze,
		"ReferenceQuery": func() error { _, err := e.ReferenceQuery(`SELECT id FROM emp`); return err },
	} {
		if err := call(); !errors.Is(err, ErrEngineClosed) {
			t.Errorf("%s after Close: want ErrEngineClosed, got %v", name, err)
		}
	}
}

// TestCloseStmtAfterClose: a statement prepared before Close refuses to
// execute afterwards.
func TestCloseStmtAfterClose(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))
	st, err := e.Prepare(`SELECT id FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(types.NewInt(1)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Stmt.Query after Close: want ErrEngineClosed, got %v", err)
	}
}

// TestCloseWaitsForInflight verifies Close blocks until in-flight work
// finishes. The op is held open directly via the begin/end hooks so the
// test is deterministic regardless of query speed.
func TestCloseWaitsForInflight(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))
	if err := e.beginOp(); err != nil {
		t.Fatal(err)
	}
	const hold = 120 * time.Millisecond
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(hold)
		e.endOp()
	}()
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed < hold/2 {
		t.Fatalf("Close returned after %v without waiting for in-flight work", elapsed)
	}
	wg.Wait()
}

// TestCloseWaitsForInflightLoad: a bulk load is in-flight work too. Close
// must not report "drained" while LoadTable is still appending to
// partitions or rebuilding indexes.
func TestCloseWaitsForInflightLoad(t *testing.T) {
	e := Open(WithPreset(ICPlus, 2))
	mustExec(t, e, `CREATE TABLE big (id BIGINT PRIMARY KEY, grp BIGINT)`)
	mustExec(t, e, `CREATE INDEX big_grp ON big (grp)`)
	rows := make([]Row, 200000)
	for i := range rows {
		rows[i] = Row{types.NewInt(int64(i)), types.NewInt(int64(i % 16))}
	}
	loaded := make(chan error, 1)
	go func() { loaded <- e.LoadTable("big", rows) }()
	// Wait until the load has registered itself, so Close races a load
	// that is genuinely in flight (it runs for tens of milliseconds).
	for inflight := 0; inflight == 0; time.Sleep(50 * time.Microsecond) {
		select {
		case err := <-loaded:
			t.Fatalf("LoadTable returned (%v) without registering as in-flight work", err)
		default:
		}
		e.shutMu.Lock()
		inflight = e.ops
		e.shutMu.Unlock()
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Drained means loaded and indexed: rebuilding the index is the load's
	// last step.
	if _, _, err := e.store.IndexScanAt("big", "big_grp", 0, 0); err != nil {
		t.Errorf("Close returned before the load finished: %v", err)
	}
	if err := <-loaded; err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
}

// TestCloseContextExpired reports drain interruption when the context
// fires while work is still in flight.
func TestCloseContextExpired(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))
	if err := e.beginOp(); err != nil {
		t.Fatal(err)
	}
	defer e.endOp()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := e.CloseContext(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext with busy engine: want DeadlineExceeded wrap, got %v", err)
	}
	// New work is already rejected even though the drain was interrupted.
	if _, qerr := e.Query(`SELECT id FROM emp`); !errors.Is(qerr, ErrEngineClosed) {
		t.Fatalf("Query after interrupted Close: want ErrEngineClosed, got %v", qerr)
	}
}
