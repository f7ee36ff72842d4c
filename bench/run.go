package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// options selects one run.
type options struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks data to smokeSF and set-up to one repetition, for
	// tests.
	smoke  bool
	outDir string
}

// outcome is what one run reports.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errDrift marks a staged pipeline that no longer computes what the
// engine computes; its per-layer numbers would describe something else.
var errDrift = errors.New("staged pipeline drifted from Engine.run")

// setupReps is how many times a run sets the system up; setup_s is the
// median, so one slow set-up on a shared host does not move it.
const setupReps = 3

// warm-up before any timed window: at least this long and this many
// passes, so caches fill and lazy initialisation finishes untimed.
const (
	warmupTime   = time.Second
	warmupPasses = 3
)

func (o options) warmup() (time.Duration, int) {
	if o.smoke {
		return 50 * time.Millisecond, 1
	}
	return warmupTime, warmupPasses
}

func (o options) window(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// setUp opens the system and runs each statement once, the point from
// which a user gets answers. It returns the time that took.
func setUp(o options, in *stream) (*system, time.Duration, error) {
	start := time.Now()
	sys, err := openSystem(o.w, o.smoke)
	if err != nil {
		return nil, 0, err
	}
	for _, i := range in.Order {
		if _, _, err := sys.run(i, in.args(0, i), false); err != nil {
			sys.close()
			return nil, 0, fmt.Errorf("first run of %s: %w", o.w.Stmts[i].ID, err)
		}
	}
	return sys, time.Since(start), nil
}

// runUntraced measures the end-to-end metrics: set-up (several times),
// validation, warm-up, the timed closed-loop window, validation again.
func runUntraced(o options) (*outcome, error) {
	in := newStream(o.w, o.seed, o.smoke)
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	var (
		sys    *system
		setups []float64
	)
	for r := 0; r < reps; r++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC() // do not let the previous copy's garbage tax this set-up
		}
		s, d, err := setUp(o, in)
		if err != nil {
			return nil, err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	defer func() { sys.close() }()
	heapMB := liveHeapMB()

	c := &checker{sys: sys, in: in}
	c.validate(0)
	if c.invalid > 0 {
		return &outcome{Attempted: c.attempted, Failed: c.failed, Metrics: report(endToEnd, nil)}, nil
	}
	wd, wp := o.warmup()
	warm := c.loop(1, wd, wp)
	next := 1 + len(warm.passLat)
	win := c.loop(next, o.window(1), 1)
	c.validate(next + len(win.passLat))
	if win.stmts == 0 {
		return nil, fmt.Errorf("%s: no statement succeeded in the window", o.w.Name)
	}

	n := float64(win.stmts)
	got := map[string]float64{
		"setup_s":           median(setups),
		"lat_p50_ms":        median(millis(win.passLat)),
		"cpu_ms_per_stmt":   float64(win.res.cpu) / 1e6 / n,
		"allocs_per_stmt":   float64(win.res.mallocs) / n,
		"alloc_kb_per_stmt": float64(win.res.bytes) / 1e3 / n,
		"data_heap_mb":      heapMB,
	}
	return &outcome{Correct: c.invalid == 0, Attempted: c.attempted, Failed: c.failed, Metrics: report(endToEnd, got)}, nil
}
