package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadArgs: every invalid flag value is rejected before any experiment
// runs, with a non-zero exit code and the reason on stderr.
func TestBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-exp", "fig12"}, `unknown experiment "fig12" (want fig7, `},
		{[]string{"-exp", "fig9", "-sf", "small"}, `bad -sf value "small"`},
		{[]string{"-exp", "fig9", "-sites", "4,many"}, `bad -sites value "many"`},
		{[]string{"-exp", "obs", "-queries", "1,99"}, `bad -queries value "99"`},
		{[]string{"-exp", "fig9", "-faults", "crash=oops"}, "-faults: "},
		{[]string{"-exp", "obs", "-system", "ic++"}, `unknown -system "ic++"`},
		// Flags no experiment reads are not bound.
		{[]string{"-exp", "fig9", "-admission", "1"}, "flag provided but not defined: -admission"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
}

// TestAllRunsThePaperExperiments: -exp all is exactly the dispatch table's
// paper entries, in table order; every entry also runs alone by name.
func TestAllRunsThePaperExperiments(t *testing.T) {
	names := func(es []experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.name)
		}
		return strings.Join(out, ",")
	}
	var paper []experiment
	for _, e := range experiments {
		if e.paper {
			paper = append(paper, e)
		}
		if one, err := selectExperiments(e.name); err != nil || names(one) != e.name {
			t.Errorf("-exp %s selects %q (%v)", e.name, names(one), err)
		}
	}
	all, err := selectExperiments("all")
	if err != nil || names(all) != names(paper) || len(paper) == len(experiments) {
		t.Errorf("-exp all selects %q (%v); the table's paper entries are %q", names(all), err, names(paper))
	}
}

// TestObsExportsArtifacts runs the observability experiment end to end:
// it must print the estimate-vs-actual report and write a parseable
// metrics document in the current schema, whose operator report is not
// empty, plus a non-empty Chrome trace.
func TestObsExportsArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "obs", "-sf", "0.002", "-sites", "2", "-queries", "1", "-metrics", metrics, "-trace", trace}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "Q1: modeled=") || !strings.Contains(stdout.String(), " est=") {
		t.Errorf("stdout lacks the per-operator report:\n%s", stdout.String())
	}
	var mf struct {
		Schema  string `json:"schema"`
		Queries []struct {
			Label     string `json:"label"`
			Rows      int    `json:"rows"`
			Operators []struct {
				Op string `json:"op"`
			} `json:"operators"`
		} `json:"queries"`
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatalf("metrics file does not parse: %v", err)
	}
	if mf.Schema != "gignite.metrics/v2" {
		t.Errorf("schema %q", mf.Schema)
	}
	if len(mf.Queries) != 1 || mf.Queries[0].Label != "Q1" || mf.Queries[0].Rows == 0 ||
		len(mf.Queries[0].Operators) == 0 || mf.Queries[0].Operators[0].Op == "" {
		t.Errorf("queries = %+v", mf.Queries)
	}
	var events interface{}
	if data, err = os.ReadFile(trace); err != nil || json.Unmarshal(data, &events) != nil || len(data) < 100 {
		t.Errorf("trace file: %d bytes, read error %v", len(data), err)
	}
}
