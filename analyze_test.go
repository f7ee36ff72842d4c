package gignite_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// updateAnalyze makes TestAnalyzeGolden rewrite testdata/analyze.golden
// from the current reports instead of comparing against them.
var updateAnalyze = flag.Bool("update-analyze", false, "TestAnalyzeGolden: rewrite testdata/analyze.golden")

// wallField matches the one host-dependent field of an EXPLAIN ANALYZE
// line, the wall time.
var wallField = regexp.MustCompile(` wall=[^ \]]+`)

// TestAnalyzeGolden pins what every TPC-H and SSB query reports under
// EXPLAIN ANALYZE on IC+ and IC+M, wall times stripped: each operator's
// estimated and actual rows, its exact work, build rows, batches and
// memory charge, and the query's modeled time, work and shipped bytes.
// An executor change that means to leave the modeled clock alone must
// leave this file byte-identical; rewrite it with -update-analyze only
// for a change that means to move those numbers.
func TestAnalyzeGolden(t *testing.T) {
	const (
		path  = "testdata/analyze.golden"
		sf    = 0.005
		sites = 4
	)
	type query struct{ label, sql string }
	var tpchQs, ssbQs []query
	var views []string
	for _, q := range tpch.Queries() {
		tpchQs = append(tpchQs, query{fmt.Sprintf("Q%02d", q.ID), q.SQL})
		views = append(views, q.Setup...)
	}
	for _, q := range ssb.Queries() {
		ssbQs = append(ssbQs, query{q.ID, q.SQL})
	}
	workloads := []struct {
		w       harness.Workload
		setup   []string
		queries []query
	}{{harness.TPCH, views, tpchQs}, {harness.SSB, nil, ssbQs}}

	var out strings.Builder
	for _, wl := range workloads {
		for _, sys := range []harness.System{harness.ICPlus, harness.ICPM} {
			e := gignite.Open(gignite.WithConfig(harness.ConfigFor(sys, sites, sf)),
				func(c *gignite.Config) { c.ExperimentalViews = true })
			if err := wl.w.Setup(e, sf); err != nil {
				t.Fatal(err)
			}
			for _, stmt := range wl.setup {
				if _, err := e.Exec(stmt); err != nil {
					t.Fatalf("%s setup: %v", wl.w, err)
				}
			}
			for _, q := range wl.queries {
				fmt.Fprintf(&out, "=== %s %s %s\n", wl.w, sys, q.label)
				res, err := e.Exec("EXPLAIN ANALYZE " + q.sql)
				if err != nil {
					fmt.Fprintf(&out, "error: %v\n", err)
					continue
				}
				out.WriteString(wallField.ReplaceAllString(strings.TrimRight(res.PlanText, "\n"), ""))
				out.WriteString("\n")
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updateAnalyze {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if bad++; bad > 20 {
				t.Fatalf("more than 20 lines differ")
			}
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
