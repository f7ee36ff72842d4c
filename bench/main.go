// Command bench is gignite's wall-clock benchmark: five closed-loop
// workloads, end-to-end metrics measured with tracing off, and per-layer
// metrics from a traced run that replays the same statements through a
// staged pipeline (see README.md). BENCHMARK.json at the repository root
// describes it to the driver.
//
//	bash bench/run.sh --workload scan_agg --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                      # every workload, both modes
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, traced and untraced, one child process each)")
		seed    = flag.Int64("seed", 1, "seed of every random draw")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		smoke   = flag.Bool("smoke", false, "shrink data and set-up (tests)")
		outDir  = flag.String("out", "bench/out", "directory for run and trace files")
	)
	flag.Parse()
	if *name == "" {
		os.Exit(runAll(uint64(*seed), *seconds, *smoke, *outDir))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := options{w: w, seed: uint64(*seed), seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir}
	out, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printOutcome(o, out)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// runOne performs one run and stores its files under o.outDir.
func runOne(o options) (*outcome, error) {
	var (
		out *outcome
		tr  *tracer
		err error
	)
	if o.trace {
		out, tr, err = runTraced(o)
	} else {
		out, err = runUntraced(o)
	}
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(o.outDir, "trace-"+o.w.Name+".json"), out.Metrics); err != nil {
			return nil, err
		}
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	file := runFile{
		Env: environment(), Workload: o.w.Name, Seed: o.seed, Seconds: o.seconds, Trace: mode,
		Statements: statementIDs(o.w), Outcome: *out,
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("run-%s-t%d-s%d-%d.json", o.w.Name, mode, o.seed, time.Now().Unix()))
	return out, os.WriteFile(path, data, 0o644)
}

// printOutcome prints every metric as "workload name value unit" and, as
// the last line, the JSON object the driver reads.
func printOutcome(o options, out *outcome) {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Printf("%s %s %.6g %s\n", o.w.Name, s.Name, out.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload untraced and traced, each in a child process
// of its own (fresh heap, fresh GC state, own peak RSS), and relays the
// metric lines. It exits non-zero if any run fails or is incorrect.
func runAll(seed uint64, seconds float64, smoke bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", outDir}
			if smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var out outcome
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &out)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %s: %v\n", w.Name, trace, err)
				status = 1
				continue
			}
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			fmt.Printf("%s trace=%s correct=%v attempted=%d failed=%d\n", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			if !out.Correct || out.Failed > 0 {
				status = 1
			}
		}
	}
	return status
}

// runFile is what a run leaves under bench/out for compare.
type runFile struct {
	Env        map[string]string `json:"env"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Statements []string          `json:"statements"` // position N names client.stmt_p50_ms.sN
	Outcome    outcome           `json:"outcome"`
}

func statementIDs(w *workload) []string {
	ids := make([]string, len(w.Stmts))
	for i, s := range w.Stmts {
		ids[i] = s.ID
	}
	return ids
}

// environment is recorded with every run: latencies are this host's, and
// a comparison is only meaningful between runs that agree on it.
func environment() map[string]string {
	env := map[string]string{
		"commit":     "unknown",
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gogc":       os.Getenv("GOGC"),
		"cpu":        cpuModel(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
