package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"gignite"
)

// checker validates statements against Engine.ReferenceQuery and counts
// the benchmark's operations.
type checker struct {
	sys *system
	in  *stream
	// expect is the validated row count of each statement, which every
	// later execution must repeat.
	expect    []int
	attempted int
	failed    int
	// invalid counts validation mismatches: they make the run incorrect,
	// not merely slower.
	invalid int
	// modeledMs and shippedKB total Result.Modeled and Stats.BytesShipped
	// over the first validation pass (in-process for every workload).
	modeledMs, shippedKB float64
}

// validate runs one pass, comparing every statement's rows with the
// reference interpreter's. The first call fixes the expected row counts.
func (c *checker) validate(pass int) {
	first := c.expect == nil
	if first {
		c.expect = make([]int, len(c.sys.w.Stmts))
	}
	for _, i := range c.in.Order {
		c.attempted++
		if err := c.validateStmt(pass, i, first); err != nil {
			c.failed++
			c.invalid++
			fmt.Fprintf(os.Stderr, "bench: %s pass %d %s: %v\n", c.sys.w.Name, pass, c.sys.w.Stmts[i].ID, err)
		}
	}
}

func (c *checker) validateStmt(pass, i int, first bool) error {
	st := &c.sys.w.Stmts[i]
	args := c.in.args(pass, i)
	want, err := c.sys.engines[st.Schema].ReferenceQuery(inlineArgs(st.SQL, args))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	_, got, err := c.sys.run(i, args, true)
	if err != nil {
		return err
	}
	if err := sameRows(got, want); err != nil {
		return fmt.Errorf("differs from the reference: %w", err)
	}
	if !first {
		return nil
	}
	c.expect[i] = len(want)
	res, err := c.sys.inProcess(context.Background(), i, args)
	if err != nil {
		return fmt.Errorf("in-process: %w", err)
	}
	c.modeledMs += float64(res.Modeled) / 1e6
	c.shippedKB += res.Stats.BytesShipped / 1e3
	return nil
}

// inlineArgs substitutes lookup keys for `?` so the reference interpreter,
// which has no parameters, can run the statement.
func inlineArgs(sqlText string, args []gignite.Value) string {
	for _, a := range args {
		sqlText = strings.Replace(sqlText, "?", a.String(), 1)
	}
	return sqlText
}

// window is one closed-loop measurement: a single client that issues the
// next statement only when the previous one has answered.
type window struct {
	passLat []time.Duration
	stmtLat [][]time.Duration // by statement index
	stmts   int               // correctly answered statements
	elapsed time.Duration
	res     resources // consumed between the first and the last pass
}

// loop runs whole passes, starting at firstPass, until d has elapsed (and
// at least minPasses ran). Latency is per pass, throughput per statement.
func (c *checker) loop(firstPass int, d time.Duration, minPasses int) *window {
	w := &window{stmtLat: make([][]time.Duration, len(c.sys.w.Stmts))}
	before := readResources()
	start := time.Now()
	for pass := firstPass; ; pass++ {
		passStart := time.Now()
		for _, i := range c.in.Order {
			d, ok := c.issue(pass, i)
			w.stmtLat[i] = append(w.stmtLat[i], d)
			if ok {
				w.stmts++
			}
		}
		w.passLat = append(w.passLat, time.Since(passStart))
		if w.elapsed = time.Since(start); w.elapsed >= d && len(w.passLat) >= minPasses {
			break
		}
	}
	w.res = readResources().minus(before)
	return w
}

// issue executes statement i of a pass on the measured path, times it and
// counts the operation; ok is false when it failed, overran stmtDeadline
// or returned a row count other than the validated one.
func (c *checker) issue(pass, i int) (d time.Duration, ok bool) {
	t0 := time.Now()
	n, _, err := c.sys.run(i, c.in.args(pass, i), false)
	d = time.Since(t0)
	c.attempted++
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: %s pass %d %s: %v\n", c.sys.w.Name, pass, c.sys.w.Stmts[i].ID, err)
	case d > stmtDeadline:
		fmt.Fprintf(os.Stderr, "bench: %s pass %d %s: took %v\n", c.sys.w.Name, pass, c.sys.w.Stmts[i].ID, d)
	case n != c.expect[i]:
		fmt.Fprintf(os.Stderr, "bench: %s pass %d %s: %d rows, validated %d\n",
			c.sys.w.Name, pass, c.sys.w.Stmts[i].ID, n, c.expect[i])
	default:
		return d, true
	}
	c.failed++
	return d, false
}

// resources are the process-wide counters read around a window.
type resources struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCPU    float64 // seconds
	gcCycles uint32
	pauses   [256]uint64   // MemStats.PauseNs, a ring of the latest pauses
	pauseMax time.Duration // longest pause between two readings (set by minus)
}

func readResources() resources {
	var r resources
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs, r.bytes, r.gcCycles, r.pauses = m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseNs
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	r.gcCPU = s[0].Value.Float64()
	return r
}

func (r resources) minus(b resources) resources {
	d := resources{
		cpu: r.cpu - b.cpu, mallocs: r.mallocs - b.mallocs, bytes: r.bytes - b.bytes,
		gcCPU: r.gcCPU - b.gcCPU, gcCycles: r.gcCycles - b.gcCycles,
	}
	// Cycle n's pause is at (n+255)%256; older ones have been overwritten.
	for n := r.gcCycles; n > b.gcCycles && r.gcCycles-n < 256; n-- {
		d.pauseMax = max(d.pauseMax, time.Duration(r.pauses[(n+255)%256]))
	}
	return d
}

// liveHeapMB is the heap in use after two collections: what loaded data,
// indexes, statistics and prepared plans occupy.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports KB
}
