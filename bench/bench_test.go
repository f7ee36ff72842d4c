package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"gignite/internal/types"
)

func TestQuantiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	s := sortedCopy(v)
	if got := quantile(s, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if quantile(nil, 0.5) != 0 || quantile(s, 0) != 1 || quantile(s, 1) != 10 {
		t.Errorf("quantile edge cases wrong")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := highestSupportedPercentile(n); got != want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Parent: 2, Start: 12, End: 20},
		{ID: 7, Parent: 99, Start: 0, End: 5}, // parent not in the set
	}
	want := map[int]int64{1: 40, 2: 12, 3: 30, 4: 10, 5: 30, 6: 8, 7: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSeedFixesTheStream(t *testing.T) {
	type draw struct {
		order []int
		keys  []int64
	}
	take := func(w *workload, seed uint64) draw {
		in := newStream(w, seed, true)
		d := draw{order: in.Order}
		for pass := 0; pass < 50; pass++ {
			for i := range w.Stmts {
				for _, a := range in.args(pass, i) {
					d.keys = append(d.keys, a.I)
				}
			}
		}
		return d
	}
	for i := range workloads {
		w := &workloads[i]
		if !reflect.DeepEqual(take(w, 7), take(w, 7)) {
			t.Errorf("%s: the same seed gave two different streams", w.Name)
		}
		differs := false
		for seed := uint64(8); seed < 12; seed++ {
			differs = differs || !reflect.DeepEqual(take(w, 7), take(w, seed))
		}
		if !differs {
			t.Errorf("%s: five seeds gave one stream", w.Name)
		}
	}
	in := newStream(workloadByName("served_short"), 3, true)
	for pass := 0; pass < 1000; pass++ {
		for i := range in.Order {
			if k := in.args(pass, i)[0].I; k < in.keyLo[i] || k > in.keyHi[i] {
				t.Fatalf("statement %d key %d outside [%d, %d]", i, k, in.keyLo[i], in.keyHi[i])
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default is %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, doc.Workloads[i].Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || len(w.Stmts) > maxStatements {
			t.Errorf("workload %s breaks a limit", w.Name)
		}
	}
	check := func(kind string, specs []metricSpec, listed []metric) {
		if len(specs) != len(listed) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(specs), len(listed))
		}
		for i, s := range specs {
			if !name.MatchString(s.Name) {
				t.Errorf("%s: bad metric name %q", kind, s.Name)
			}
			if got := (metric{s.Name, s.Unit, s.Better, s.Bound}); got != listed[i] {
				t.Errorf("%s: program reports %+v, BENCHMARK.json lists %+v", kind, got, listed[i])
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

func TestSameRows(t *testing.T) {
	row := func(k int64, f float64) types.Row { return types.Row{types.NewInt(k), types.NewFloat(f)} }
	a := []types.Row{row(1, 100), row(2, 0.5)}
	b := []types.Row{row(2, 0.5), row(1, 100*(1+1e-9))}
	if err := sameRows(a, b); err != nil {
		t.Errorf("reordered rows with float noise: %v", err)
	}
	if sameRows(a, []types.Row{row(1, 100), row(2, 0.6)}) == nil || sameRows(a, a[:1]) == nil {
		t.Errorf("different rows compared equal")
	}
	if identicalRows(a, b) == nil || identicalRows(a, a) != nil {
		t.Errorf("identicalRows must be exact and ordered")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"single same", lower, []float64{100}, []float64{105}, "same"},
		{"single worse", lower, []float64{100}, []float64{115}, "worse"},
		{"single better", lower, []float64{100}, []float64{80}, "better"},
		{"higher is better", higher, []float64{100}, []float64{85}, "worse"},
		{"ten same", lower, steady, scale(steady, 1.01), "same"},
		{"ten worse", lower, steady, scale(steady, 1.2), "worse"},
		{"ten better", lower, steady, scale(steady, 0.9), "better"},
		{"ten better, higher", higher, steady, scale(steady, 1.1), "better"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.2), "unresolved"},
	} {
		if got := judge(c.spec, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny data. It is
// the guard that a run completes, fails no operation, passes validation
// and the drift guard, and reports every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o := options{w: w, seed: 1, seconds: 0.5, smoke: true, outDir: t.TempDir()}
			e2e, err := runOne(o)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			layers, err := runOne(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []*outcome{e2e, layers} {
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
				}
			}
			for _, s := range endToEnd {
				if v := e2e.Metrics[s.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", s.Name, v)
				}
			}
			if len(layers.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d listed", len(layers.Metrics), len(perLayer))
			}
			// The planner runs per statement on plan_adhoc and nowhere else.
			if planned := layers.Metrics["volcano.optimize_us"].Value > 0; planned != (w.Mode == modeAdhoc) {
				t.Errorf("volcano.optimize_us > 0 is %v", planned)
			}
			if served := layers.Metrics["wire.bytes"].Value > 0; served != w.Mode.served() {
				t.Errorf("wire.bytes > 0 is %v", served)
			}
			if layers.Metrics["cluster.run_us"].Value <= 0 || layers.Metrics["trace.coverage"].Value <= 0 {
				t.Errorf("cluster.run_us or trace.coverage missing")
			}
		})
	}
}
