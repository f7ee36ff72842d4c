package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `bench compare A B`: each side is a run file or
// a directory of run files (several runs per side). For every workload ×
// end-to-end metric it prints both medians, the relative difference, the
// bound and a verdict, and returns non-zero on any "worse".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <A.json|dirA> <B.json|dirB>")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b side
		if b, err = loadSide(args[1]); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// side maps workload → end-to-end metric → one value per run, in file
// name order (which is run order: names end in the Unix time).
type side map[string]map[string][]float64

func loadSide(path string) (side, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := make(side)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace != 0 {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Outcome.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no untraced run files", path)
	}
	return s, nil
}

func printComparison(a, b side) int {
	status := 0
	fmt.Printf("%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "diff", "bound", "verdict")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			va, vb := a[w.Name][spec.Name], b[w.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(spec, va, vb)
			fmt.Printf("%-14s %-18s %12.5g %12.5g %+7.1f%% %5.0f%%  %s", w.Name, spec.Name, median(va), median(vb), 100*v.diff, 100*spec.Bound, v.verdict)
			if len(va) > 1 && len(vb) > 1 {
				a1, a3 := quartiles(va)
				b1, b3 := quartiles(vb)
				fmt.Printf("  (A q1..q3 %.5g..%.5g, B %.5g..%.5g, B wins %d/%d pairs)", a1, a3, b1, b3, v.wins, v.pairs)
			}
			fmt.Println()
			if v.verdict == "worse" {
				status = 1
			}
		}
	}
	return status
}

type verdict struct {
	diff        float64 // (B − A) ÷ A of the medians; the sign is the raw direction
	verdict     string
	wins, pairs int
}

// judge applies the rules of the choosing-metrics guide. B is worse when
// its median is worse than A's by more than the bound. With several runs
// per side, a metric whose spread on A (quartile distance ÷ median)
// exceeds the bound is unresolved rather than unchanged, and B is better
// only when it wins at least nine tenths of the run pairs (ties count for
// neither) and the medians differ by more than A's quartile distance.
func judge(spec metricSpec, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	v := verdict{diff: (mb - ma) / ma, verdict: "same"}
	worseBy := v.diff // positive = B worse
	if spec.Better == "higher" {
		worseBy = -v.diff
	}
	if len(a) < 2 || len(b) < 2 {
		switch {
		case worseBy > spec.Bound:
			v.verdict = "worse"
		case -worseBy > spec.Bound:
			v.verdict = "better"
		}
		return v
	}
	q1, q3 := quartiles(a)
	v.pairs = min(len(a), len(b))
	ties := 0
	for i := 0; i < v.pairs; i++ {
		switch {
		case a[i] == b[i]:
			ties++
		case (b[i] < a[i]) == (spec.Better == "lower"):
			v.wins++
		}
	}
	switch {
	case (q3-q1)/ma > spec.Bound:
		v.verdict = "unresolved"
	case worseBy > spec.Bound:
		v.verdict = "worse"
	case float64(v.wins) >= 0.9*float64(v.pairs-ties) && v.wins > 0 && math.Abs(mb-ma) > q3-q1:
		v.verdict = "better"
	}
	return v
}
