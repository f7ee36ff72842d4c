package plancache

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gignite/internal/physical"
	"gignite/internal/sql"
)

func mkEntry(version uint64) *Entry {
	return &Entry{Plan: &physical.Values{}, Version: version}
}

func TestGetHitMiss(t *testing.T) {
	c := New(4, Metrics{})
	built := 0
	build := func() (*Entry, error) { built++; return mkEntry(1), nil }

	e1, hit, err := c.Get(100, 1, build)
	if err != nil || hit || e1 == nil {
		t.Fatalf("first Get: entry=%v hit=%v err=%v", e1, hit, err)
	}
	e2, hit, err := c.Get(100, 1, build)
	if err != nil || !hit || e2 != e1 {
		t.Fatalf("second Get: hit=%v same=%v err=%v", hit, e2 == e1, err)
	}
	if built != 1 {
		t.Fatalf("builder ran %d times, want 1", built)
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, Metrics{})
	for d := uint64(1); d <= 2; d++ {
		if _, _, err := c.Get(d, 1, func() (*Entry, error) { return mkEntry(1), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 is the LRU victim.
	if _, hit, _ := c.Get(1, 1, nil); !hit {
		t.Fatal("expected hit on digest 1")
	}
	if _, _, err := c.Get(3, 1, func() (*Entry, error) { return mkEntry(1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(1, 1, nil); !hit {
		t.Fatal("digest 1 should have survived eviction")
	}
	rebuilt := false
	if _, hit, _ := c.Get(2, 1, func() (*Entry, error) { rebuilt = true; return mkEntry(1), nil }); hit || !rebuilt {
		t.Fatal("digest 2 should have been evicted")
	}
	if s := c.Snapshot(); s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := New(4, Metrics{})
	if _, _, err := c.Get(7, 1, func() (*Entry, error) { return mkEntry(1), nil }); err != nil {
		t.Fatal(err)
	}
	rebuilt := false
	e, hit, err := c.Get(7, 2, func() (*Entry, error) { rebuilt = true; return mkEntry(2), nil })
	if err != nil || hit || !rebuilt {
		t.Fatalf("stale entry not rebuilt: hit=%v rebuilt=%v err=%v", hit, rebuilt, err)
	}
	if e.Version != 2 {
		t.Fatalf("entry version = %d, want 2", e.Version)
	}
	if _, hit, _ := c.Get(7, 2, nil); !hit {
		t.Fatal("rebuilt entry should hit at the new version")
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(4, Metrics{})
	boom := errors.New("no such table")
	if _, _, err := c.Get(9, 1, func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.ll.Len() != 0 {
		t.Fatal("failed build must not be cached")
	}
	if _, hit, err := c.Get(9, 1, func() (*Entry, error) { return mkEntry(1), nil }); hit || err != nil {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	c := New(4, Metrics{})
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (*Entry, error) {
		builds.Add(1)
		<-release
		return mkEntry(1), nil
	}
	const n = 16
	var wg sync.WaitGroup
	hits := make([]bool, n)
	entries := make([]*Entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.Get(42, 1, build)
			if err != nil {
				t.Error(err)
			}
			hits[i], entries[i] = hit, e
		}(i)
	}
	// Let the goroutines pile up on the single in-flight build, then free it.
	for builds.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	misses := 0
	for i := range hits {
		if !hits[i] {
			misses++
		}
		if entries[i] != entries[0] {
			t.Fatal("waiters must share the builder's entry")
		}
	}
	if misses != 1 {
		t.Fatalf("%d goroutines reported a miss, want exactly 1", misses)
	}
}

// TestWaiterOnOtherVersionBuildsItsOwn: a build started at catalog
// version 1 is blocked when a lookup at version 2 (DDL landed in between)
// finds it in flight. The waiter must not take the version-1 plan: it
// plans its own, and the cache keeps the newer entry.
func TestWaiterOnOtherVersionBuildsItsOwn(t *testing.T) {
	c := New(4, Metrics{})
	started, release := make(chan struct{}), make(chan struct{})
	old := make(chan *Entry)
	go func() {
		e, _, err := c.Get(42, 1, func() (*Entry, error) {
			close(started)
			<-release
			return mkEntry(1), nil
		})
		if err != nil {
			t.Error(err)
		}
		old <- e
	}()
	<-started
	type result struct {
		e   *Entry
		hit bool
		err error
	}
	got := make(chan result)
	go func() {
		e, hit, err := c.Get(42, 2, func() (*Entry, error) { return mkEntry(2), nil })
		got <- result{e, hit, err}
	}()
	waitForWaiters(t, 1)
	close(release)
	r := <-got
	if r.err != nil || r.hit || r.e.Version != 2 {
		t.Fatalf("waiter at version 2 got version %d, hit=%v, err=%v; want its own version-2 plan", r.e.Version, r.hit, r.err)
	}
	if e := <-old; e.Version != 1 {
		t.Fatalf("builder got version %d, want 1", e.Version)
	}
	if e, hit, _ := c.Get(42, 2, nil); !hit || e != r.e {
		t.Fatalf("cache does not hold the version-2 entry (hit=%v)", hit)
	}
}

// TestInsertKeepsNewestVersion: of two entries for one digest, the cache
// keeps the one built against the newer catalog version, whichever
// arrives last.
func TestInsertKeepsNewestVersion(t *testing.T) {
	c := New(4, Metrics{})
	newer, older := mkEntry(3), mkEntry(2)
	c.mu.Lock()
	c.insertLocked(7, newer)
	c.insertLocked(7, older)
	kept := c.entries[7].Value.(*slot).entry
	c.mu.Unlock()
	if kept != newer {
		t.Fatalf("cache holds version %d, want 3", kept.Version)
	}
}

// waitForWaiters blocks until n goroutines are parked in Get waiting for
// an in-flight build.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		waiting := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			// The waiter's innermost frame is Get itself; the blocked
			// builder's is its build function.
			if lines := strings.SplitN(g, "\n", 3); len(lines) > 1 &&
				strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], "plancache.(*Cache).Get(") {
				waiting++
			}
		}
		if waiting >= n {
			return
		}
	}
	t.Fatalf("no %d goroutine(s) waiting on an in-flight build", n)
}

func TestDigestNormalization(t *testing.T) {
	base := Digest("SELECT a FROM t WHERE a > ?")
	same := []string{
		"select a from t where a > ?",
		"SELECT  a\nFROM t  WHERE a > ?",
		"Select A From T Where A > ?",
		"EXPLAIN ANALYZE SELECT a FROM t WHERE a > ?",
	}
	for _, q := range same {
		if Digest(q) != base {
			t.Errorf("Digest(%q) differs from base", q)
		}
	}
	diff := []string{
		"SELECT a FROM t WHERE a > 1",
		"SELECT a FROM t WHERE a >= ?",
		"SELECT b FROM t WHERE a > ?",
		"SELECT 'a' FROM t WHERE a > ?",
	}
	for _, q := range diff {
		if Digest(q) == base {
			t.Errorf("Digest(%q) should differ from base", q)
		}
	}
	// Literal case is significant even though identifier case is not.
	if Digest("SELECT 'abc'") == Digest("SELECT 'ABC'") {
		t.Error("string literal case must be significant")
	}
}

// TestParsedStatementCarriesItsDigest: the parser leaves on the outermost
// SELECT the digest Digest computes from the text — under EXPLAIN
// [ANALYZE] too, which share the bare query's entry — so the engine can
// look a parsed statement up without lexing it a second time.
func TestParsedStatementCarriesItsDigest(t *testing.T) {
	const q = "SELECT a, COUNT(*) FROM T x WHERE x.a > ? AND b = 'Lit' -- note\n GROUP BY a"
	for _, src := range []string{q, "explain " + q, "EXPLAIN ANALYZE " + q} {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if ex, isExplain := stmt.(*sql.ExplainStmt); isExplain {
			sel, ok = ex.Query, true
		}
		if !ok {
			t.Fatalf("%q parsed to %T", src, stmt)
		}
		if sel.Digest != Digest(src) || sel.Digest != Digest(q) {
			t.Errorf("%q: parsed digest %#x, Digest(text) %#x, Digest(bare query) %#x",
				src, sel.Digest, Digest(src), Digest(q))
		}
	}
}
