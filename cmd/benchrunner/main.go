// Command benchrunner regenerates the paper's evaluation artifacts: one
// experiment per table and figure of §6, printed as aligned text tables,
// plus three runs that are not paper artifacts (-exp sweep, -exp obs,
// -exp serveaql). It prints and exports; it asserts nothing — every
// invariant of the engine is a `go test` case (MIGRATION.md maps the
// former smoke experiments to their tests).
//
//	benchrunner -exp NAME [-sf 0.005,0.01] [-sites 4,8] [engine flags]
//
// -exp all runs the §6 tables and figures; -h lists the experiment names
// and the engine flags (internal/engineflags), which apply to every engine
// an experiment opens, the ablation's one-improvement-off engines
// included. Response times are deterministic modeled times from the
// simnet cost clock (DESIGN.md §2): reproducible across hosts and
// independent of -par, which only sets how many host goroutines execute
// fragment instances. With -backups ≥ 1 and a -faults plan the modeled
// times include retry recovery cost; with no backups a crashed site turns
// into clean query errors.
//
// The sweep experiment runs every TPC-H query but Q15 and every SSB query
// once on IC, IC+ and IC+M and prints their modeled times and speedup
// ratios side by side, one table per -sf × -sites point. The obs
// experiment runs the selected TPC-H queries (-queries, on the -system
// variant) once and emits observability artifacts: -metrics writes the
// per-query and cumulative metrics JSON (schema harness.MetricsSchema),
// -trace the distributed traces as a Chrome trace_event file (load it in
// Perfetto or chrome://tracing). It fails when the estimate-vs-actual
// operator report comes back empty. The serveaql experiment prints
// wall-clock average query latency for 2 and -clients database/sql
// clients over loopback TCP, at the first -sf and -sites.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// invocation is one parsed command line, handed to every experiment.
type invocation struct {
	harness.Options
	system     harness.System // obs
	queries    []int          // obs: TPC-H ids, nil = paper set
	metricsOut string         // obs
	traceOut   string         // obs
	stdout     io.Writer
	stderr     io.Writer
}

// experiment is one -exp name. The §6 tables and figures (paper; what
// -exp all runs) print a harness report.
type experiment struct {
	name  string
	paper bool
	run   func(*invocation) error
}

func report(name string, build func(harness.Options) (*harness.Report, error)) experiment {
	return experiment{name, true, printed(build)}
}

// printed runs a harness experiment and prints its report, also the
// partial one an experiment returns with its error.
func printed(build func(harness.Options) (*harness.Report, error)) func(*invocation) error {
	return func(inv *invocation) error {
		rep, err := build(inv.Options)
		if rep != nil {
			fmt.Fprintln(inv.stdout, rep.Render())
		}
		return err
	}
}

// experiments is the one dispatch table: the -exp help text, the
// unknown-experiment message and -exp all are all derived from it.
var experiments = []experiment{
	report("fig7", harness.Fig7),
	report("fig8", harness.Fig8),
	report("fig9", harness.Fig9),
	report("fig10", harness.Fig10),
	report("table3", harness.Table3),
	report("fig11", harness.Fig11),
	report("failures", harness.FailureMatrix),
	report("ablate", harness.Ablation),
	report("scaling", harness.Scaling),
	{"sweep", false, runSweep},
	{"obs", false, runObs},
	{"serveaql", false, printed(harness.ServeAQL)},
}

// experimentNames lists the table's names plus "all", for messages.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ") + ", all"
}

// selectExperiments resolves -exp: one table entry by name, or the paper
// entries in table order for "all".
func selectExperiments(name string) ([]experiment, error) {
	var out []experiment
	for _, e := range experiments {
		if name == e.name || (name == "all" && e.paper) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, experimentNames())
	}
	return out, nil
}

// run is the whole program: parse args, run the selected experiments,
// report the first failure on stderr. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+experimentNames())
	ef := engineflags.Bind(fs, 0)
	sfs := fs.String("sf", "0.005,0.01", "comma-separated scale factors")
	sites := fs.String("sites", "4,8", "comma-separated site counts")
	timeout := fs.Duration("timeout", 0, "per-query wall-clock deadline (0 = none)")
	queries := fs.String("queries", "", "obs experiment: comma-separated TPC-H query ids (empty = paper set)")
	metricsOut := fs.String("metrics", "", "obs experiment: write the metrics JSON to this file")
	traceOut := fs.String("trace", "", "obs experiment: write Chrome trace_event JSON to this file")
	clients := fs.Int("clients", 8, "serveaql experiment: concurrent database/sql clients")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	inv := &invocation{
		Options:    harness.Options{Clients: []int{2, *clients}},
		metricsOut: *metricsOut, traceOut: *traceOut,
		stdout: stdout, stderr: stderr,
	}
	if err := inv.execute(*exp, ef, *sfs, *sites, *queries, *timeout); err != nil {
		fmt.Fprintf(stderr, "benchrunner: %v\n", err)
		return 1
	}
	return 0
}

// execute validates every flag value before any experiment runs, builds
// the engine environment — flag → Config is one hop, through the options
// engineflags resolves, fixed in the Env for the whole run — and runs the
// selected experiments up to the first failure.
func (inv *invocation) execute(exp string, ef *engineflags.Values, sfs, sites, queries string, timeout time.Duration) error {
	selected, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	system, err := ef.Preset()
	if err != nil {
		return err
	}
	flags, err := ef.EngineOptions()
	if err != nil {
		return err
	}
	inv.system = system
	inv.Env = harness.NewEnv(flags, func(c *gignite.Config) { c.QueryTimeout = timeout })
	for _, s := range strings.Split(sfs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -sf value %q: %v", s, err)
		}
		inv.SFs = append(inv.SFs, v)
	}
	for _, s := range strings.Split(sites, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -sites value %q: %v", s, err)
		}
		inv.Sites = append(inv.Sites, v)
	}
	if queries != "" {
		for _, s := range strings.Split(queries, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || tpch.QueryByID(id) == nil {
				return fmt.Errorf("bad -queries value %q: not a TPC-H query id", s)
			}
			inv.queries = append(inv.queries, id)
		}
	}
	for _, e := range selected {
		if err := e.run(inv); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// runSweep prints the side-by-side sweep at every -sf × -sites point.
func runSweep(inv *invocation) error {
	for _, sf := range inv.SFs {
		for _, sites := range inv.Sites {
			rep, err := harness.Sweep(inv.Env, sf, sites)
			if err != nil {
				return err
			}
			fmt.Fprintln(inv.stdout, rep.Render())
		}
	}
	return nil
}

// runObs executes the observability experiment: run the selected TPC-H
// queries on one system, print the estimate-vs-actual report, and write
// the -metrics / -trace artifacts.
func runObs(inv *invocation) error {
	mf, traces, err := harness.CollectMetrics(inv.Env, inv.system, inv.Sites[0], inv.SFs[0], inv.queries)
	if err != nil {
		return err
	}
	ops := 0
	for _, q := range mf.Queries {
		fmt.Fprintf(inv.stdout, "%s: modeled=%.4fs rows=%d instances=%d retries=%d spans=%d digest=%s\n",
			q.Label, q.Modeled.Seconds(), q.RowCount, q.Stats.Instances, q.Stats.Retries, q.Stats.Spans, q.PlanDigest)
		for _, op := range q.Operators {
			fmt.Fprintf(inv.stdout, "  frag%d %-40s est=%-10.0f act=%-10d qerr=%.1fx\n",
				op.Frag, op.Op, op.EstRows, op.ActRows, op.QError)
			ops++
		}
	}
	if inv.metricsOut != "" {
		data, err := json.MarshalIndent(mf, "", "  ")
		if err != nil {
			return err
		}
		if err := writeArtifact(inv, inv.metricsOut, append(data, '\n')); err != nil {
			return err
		}
	}
	if inv.traceOut != "" {
		data, err := obs.ChromeTrace(traces)
		if err != nil {
			return fmt.Errorf("render trace: %w", err)
		}
		if err := writeArtifact(inv, inv.traceOut, data); err != nil {
			return err
		}
	}
	if ops == 0 {
		return errors.New("estimate-vs-actual report is empty")
	}
	return nil
}

func writeArtifact(inv *invocation, path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(inv.stderr, "benchrunner: wrote %s\n", path)
	return nil
}
