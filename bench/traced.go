package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"gignite"
	"gignite/internal/cluster"
	"gignite/internal/server"
	"gignite/internal/wire"
)

// runTraced measures the per-layer metrics. It spends 40% of the run on
// an untraced window (client tails, runtime and GC figures, and the
// latency the trace must add up to) and 60% replaying the same statement
// stream through the staged pipeline with a span around every layer.
func runTraced(o options) (*outcome, *tracer, error) {
	in := newStream(o.w, o.seed, o.smoke)
	sys, _, err := setUp(o, in)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	c := &checker{sys: sys, in: in}
	c.validate(0)
	if c.invalid > 0 {
		return &outcome{Attempted: c.attempted, Failed: c.failed, Metrics: report(perLayer, nil)}, nil, nil
	}

	tr := newTracer()
	heapBefore := liveHeapMB()
	st, err := openStaged(o.w, o.smoke, tr)
	if err != nil {
		return nil, nil, err
	}
	heapAfter := liveHeapMB()
	setup := tr.takeSums()
	var rows int64
	for _, db := range st.dbs {
		rows += db.rows
	}
	if err := driftGuard(c, st); err != nil {
		return nil, nil, err
	}

	wd, wp := o.warmup()
	warm := c.loop(1, wd, wp)
	next := 1 + len(warm.passLat)
	win := c.loop(next, o.window(0.4), 1)
	next += len(win.passLat)
	if win.stmts == 0 {
		return nil, nil, fmt.Errorf("%s: no statement succeeded in the window", o.w.Name)
	}

	tp, err := tracePasses(c, st, next, o.window(0.6))
	if err != nil {
		return nil, nil, err
	}
	c.validate(next + tp.passes)

	got := tp.metrics(tr, len(o.w.Stmts))
	p50 := median(millis(win.passLat))
	got["trace.coverage"] = tp.passMs / p50
	got["engine.modeled_ms_per_pass"] = c.modeledMs
	got["engine.shipped_kb_per_pass"] = c.shippedKB
	got["tpch.gen_ms"] = setup["tpch.gen"] / 1e6
	got["ssb.gen_ms"] = setup["ssb.gen"] / 1e6
	got["storage.load_ms"] = setup["storage.load"] / 1e6
	got["storage.index_ms"] = setup["storage.index"] / 1e6
	got["storage.stats_ms"] = setup["storage.stats"] / 1e6
	got["storage.heap_bytes_per_row"] = (heapAfter - heapBefore) * 1e6 / float64(rows)
	got["server.pipelining_rejects"] = float64(sys.rejects + tp.rawRejects)
	got["driver.retried_share"] = float64(sys.rejects) / float64(c.attempted)
	clientMetrics(got, win)
	return &outcome{Correct: c.invalid == 0, Attempted: c.attempted, Failed: c.failed, Metrics: report(perLayer, got)}, tr, nil
}

// clientMetrics reports what the untraced window of a traced run saw:
// latency tails (only the percentiles the sample supports), per-statement
// medians, and the runtime's garbage-collection and memory figures.
func clientMetrics(got map[string]float64, win *window) {
	lat := sortedCopy(millis(win.passLat))
	top := highestSupportedPercentile(len(lat))
	if top >= 90 {
		got["client.lat_p90_ms"] = quantile(lat, 0.90)
	}
	if top >= 99 {
		got["client.lat_p99_ms"] = quantile(lat, 0.99)
	}
	got["client.lat_max_ms"] = lat[len(lat)-1]
	got["client.passes"] = float64(len(lat))
	got["client.stmt_per_s"] = float64(win.stmts) / win.elapsed.Seconds()
	for i, l := range win.stmtLat {
		got[fmt.Sprintf("client.stmt_p50_ms.s%d", i+1)] = median(millis(l))
	}
	kstmt := float64(win.stmts) / 1e3
	got["runtime.gc_cpu_share"] = win.res.gcCPU / win.res.cpu.Seconds()
	got["runtime.gc_cycles_per_kstmt"] = float64(win.res.gcCycles) / kstmt
	got["runtime.gc_pause_max_us"] = float64(win.res.pauseMax) / 1e3
	got["runtime.peak_rss_mb"] = peakRSSMB()
}

// driftGuard runs every statement of pass 0 through both the engine and
// the staged pipeline and requires identical rows and identical
// deterministic statistics, so that rewiring the engine cannot silently
// desynchronise the per-layer numbers.
func driftGuard(c *checker, st *staged) error {
	ctx := context.Background()
	for _, i := range c.in.Order {
		args := c.in.args(0, i)
		want, err := c.sys.inProcess(ctx, i, args)
		if err != nil {
			return err
		}
		got, err := st.exec(ctx, 0, i, args)
		st.tr.discard()
		if err != nil {
			return fmt.Errorf("%w: %s: %v", errDrift, c.sys.w.Stmts[i].ID, err)
		}
		if err := sameExecution(got, want); err != nil {
			return fmt.Errorf("%w: %s: %v", errDrift, c.sys.w.Stmts[i].ID, err)
		}
	}
	return nil
}

func sameExecution(got *cluster.Result, want *gignite.Result) error {
	if err := identicalRows(got.Rows, want.Rows); err != nil {
		return err
	}
	// Work is summed over a map of instances (simnet.Trace.TotalWork), so
	// its last bits depend on iteration order; everything else is exact.
	nearly := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	s := want.Stats
	switch {
	case got.Modeled != want.Modeled:
		return fmt.Errorf("modeled %v, engine %v", got.Modeled, want.Modeled)
	case !nearly(got.Work, s.Work):
		return fmt.Errorf("work %v, engine %v", got.Work, s.Work)
	case got.BytesShipped != s.BytesShipped:
		return fmt.Errorf("bytes shipped %v, engine %v", got.BytesShipped, s.BytesShipped)
	case got.Fragments != s.Fragments || got.Instances != s.Instances:
		return fmt.Errorf("%d fragments / %d instances, engine %d / %d",
			got.Fragments, got.Instances, s.Fragments, s.Instances)
	}
	return nil
}

// tracedPasses summarises the traced part of a run.
type tracedPasses struct {
	passes int
	// passMs is the median time of one pass along the workload's whole
	// path (staged pipeline in-process, database/sql when served); the
	// untraced lat_p50_ms divides it to give trace.coverage.
	passMs float64
	// Median pass times of the three ways a served pass is replayed.
	inProcMs, rawMs, sqlMs float64
	rawRejects             int
}

// tracePasses replays passes through the staged pipeline for d. Served
// workloads also encode and decode each result the way the server and
// driver do, and repeat each statement in-process, over a raw-frame
// connection and over database/sql, which is what splits the server's
// overhead from the driver's.
func tracePasses(c *checker, st *staged, firstPass int, d time.Duration) (*tracedPasses, error) {
	ctx := context.Background()
	w, sys, tr := c.sys.w, c.sys, st.tr
	var raw *rawClient
	if w.Mode.served() {
		var prepared []string
		if w.Mode == modeServedPrepared {
			for _, s := range w.Stmts {
				prepared = append(prepared, s.SQL)
			}
		}
		var err error
		if raw, err = dialRaw(sys.srv.Addr().String(), prepared); err != nil {
			return nil, err
		}
		defer raw.close()
	}
	var stagedMs, inProc, rawLat, sqlLat []float64
	start := time.Now()
	pass := firstPass
	for ; pass == firstPass || time.Since(start) < d; pass++ {
		var tStaged, tIn, tRaw, tSQL time.Duration
		for _, i := range c.in.Order {
			args := c.in.args(pass, i)
			t0 := time.Now()
			res, err := st.exec(ctx, pass, i, args)
			tStaged += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("staged %s: %w", w.Stmts[i].ID, err)
			}
			if len(res.Rows) != c.expect[i] {
				return nil, fmt.Errorf("%w: %s: %d rows, validated %d", errDrift, w.Stmts[i].ID, len(res.Rows), c.expect[i])
			}
			if raw == nil {
				tr.flush(pass-firstPass < keepPasses)
				continue
			}
			wireSpans(tr, fmt.Sprintf("%d.%s", pass, w.Stmts[i].ID), res)
			tr.flush(pass-firstPass < keepPasses)

			// The three replays take turns going first, so none of them
			// always runs on caches the others warmed.
			for leg := 0; leg < 3; leg++ {
				switch (pass + leg) % 3 {
				case 0:
					t0 := time.Now()
					if _, err := sys.inProcess(ctx, i, args); err != nil {
						return nil, err
					}
					tIn += time.Since(t0)
				case 1:
					t0 := time.Now()
					n, err := raw.roundTrip(i, w.Stmts[i].SQL, args)
					tRaw += time.Since(t0)
					if err != nil || int(n) != c.expect[i] {
						return nil, fmt.Errorf("raw client %s: %d rows, err %v", w.Stmts[i].ID, n, err)
					}
				default:
					dSQL, _ := c.issue(pass, i)
					tSQL += dSQL
				}
			}
		}
		stagedMs = append(stagedMs, float64(tStaged)/1e6)
		inProc = append(inProc, float64(tIn)/1e6)
		rawLat = append(rawLat, float64(tRaw)/1e6)
		sqlLat = append(sqlLat, float64(tSQL)/1e6)
	}
	tp := &tracedPasses{passes: pass - firstPass, passMs: median(stagedMs)}
	if raw != nil {
		tp.inProcMs, tp.rawMs, tp.sqlMs = median(inProc), median(rawLat), median(sqlLat)
		tp.passMs = tp.sqlMs
		tp.rawRejects = raw.rejects
	}
	return tp, nil
}

// wireSpans encodes a result the way session.streamResult does and
// decodes it the way the driver's rows.readBatch does, a span around
// each, and counts the bytes that would cross the socket.
func wireSpans(tr *tracer, req string, res *cluster.Result) {
	const frameHeader = 5
	var (
		enc    wire.Encoder
		frames [][]byte
		bytes  int
	)
	// WriteFrame copies every payload into a fresh buffer; so does frame.
	frame := func() {
		bytes += frameHeader + len(enc.Bytes())
		frames = append(frames, append([]byte(nil), enc.Bytes()...))
		enc.Reset()
	}
	id := tr.begin(0, req, "wire.encode")
	cols := res.Fields.Names()
	enc.U16(uint16(len(cols)))
	for _, c := range cols {
		enc.Str(c)
	}
	bytes += frameHeader + len(enc.Bytes())
	enc.Reset()
	for lo := 0; lo < len(res.Rows); lo += server.DefaultBatchRows {
		hi := min(lo+server.DefaultBatchRows, len(res.Rows))
		enc.U16(uint16(hi - lo))
		for _, r := range res.Rows[lo:hi] {
			enc.Row(r)
		}
		frame()
	}
	tr.end(id)
	bytes += frameHeader + 8 + 8 + 1 // Done: row count, modeled nanos, flags

	id = tr.begin(0, req, "wire.decode")
	for _, payload := range frames {
		d := wire.NewDecoder(payload)
		for n := int(d.U16()); n > 0; n-- {
			d.Row()
		}
	}
	tr.end(id)
	tr.count("wire.bytes", float64(bytes))
}

// metrics turns the tracer's totals into per-statement means.
func (tp *tracedPasses) metrics(tr *tracer, stmtsPerPass int) map[string]float64 {
	n := float64(tp.passes * stmtsPerPass)
	sum := tr.sum
	got := make(map[string]float64)
	for _, name := range []string{
		"sql.parse", "binder.bind", "hep.run", "volcano.optimize", "plancache.hit",
		"physical.clone", "fragment.split", "cluster.run", "wire.encode", "wire.decode",
	} {
		got[name+"_us"] = sum[name] / 1e3 / n
	}
	for _, class := range []string{
		"scan", "filter", "project", "hashagg", "sort", "hashjoin", "mergejoin", "nljoin", "send", "recv", "other",
	} {
		got["exec."+class+"_us"] = sum["exec."+class] / 1e3 / n
		got["exec.ns_per_row"] += sum["exec."+class]
	}
	if sum["exec.rows_in"] > 0 {
		got["exec.ns_per_row"] /= sum["exec.rows_in"]
	}
	for _, name := range []string{
		"volcano.allocs", "volcano.tickets", "fragment.fragments", "cluster.run_allocs",
		"cluster.instances", "cluster.waves", "exec.rows_in", "exec.rows_shipped", "exec.work_units", "wire.bytes",
	} {
		got[name] = sum[name] / n
	}
	got["cluster.sched_us"] = sum["cluster.run.self"] / 1e3 / n
	if sum["cluster.run"] > 0 {
		got["cluster.parallelism"] = sum["cluster.instance"] / sum["cluster.run"]
	}
	if tp.sqlMs > 0 {
		got["server.overhead_us"] = (tp.rawMs - tp.inProcMs) * 1e3 / float64(stmtsPerPass)
		got["driver.overhead_us"] = (tp.sqlMs - tp.rawMs) * 1e3 / float64(stmtsPerPass)
	}
	return got
}
