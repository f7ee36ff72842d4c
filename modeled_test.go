package gignite_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// updateModeled makes TestModeledGolden rewrite testdata/modeled.golden
// from the current outcomes instead of comparing against it.
var updateModeled = flag.Bool("update-modeled", false, "TestModeledGolden: rewrite testdata/modeled.golden")

// TestModeledGolden pins the cost clock's fault-free outcome of every
// TPC-H query (Q15 through its view) and every SSB query on IC+ and IC+M
// at 4 and 8 sites, and on IC at 4 sites: per query the row count and a
// hash of the rows, the modeled time in nanoseconds, the exact bits of
// Work and BytesShipped, and the instance and span counts. IC skips the
// queries its work limit rejects (TPC-H Q2, Q17 and Q21), whose errors
// the baseline failure matrix pins. A change to how an execution is
// recorded or priced must leave this file byte-identical; rewrite it with
// -update-modeled only for a change that means to move the clock.
func TestModeledGolden(t *testing.T) {
	const (
		path = "testdata/modeled.golden"
		sf   = 0.002
	)
	type query struct {
		label string
		setup []string
		sql   string
	}
	var tpchQs, ssbQs []query
	for _, q := range tpch.Queries() {
		tpchQs = append(tpchQs, query{fmt.Sprintf("Q%02d", q.ID), q.Setup, q.SQL})
	}
	for _, q := range ssb.Queries() {
		ssbQs = append(ssbQs, query{q.ID, nil, q.SQL})
	}
	icSkips := map[string]bool{"Q02": true, "Q17": true, "Q21": true}
	configs := []struct {
		sys   harness.System
		sites int
	}{
		{harness.ICPlus, 4}, {harness.ICPlus, 8},
		{harness.ICPM, 4}, {harness.ICPM, 8},
		{harness.IC, 4},
	}
	var out strings.Builder
	for _, cfg := range configs {
		for _, wl := range []struct {
			w       harness.Workload
			queries []query
		}{{harness.TPCH, tpchQs}, {harness.SSB, ssbQs}} {
			e := gignite.Open(gignite.WithConfig(harness.ConfigFor(cfg.sys, cfg.sites, sf)),
				func(c *gignite.Config) { c.ExperimentalViews = true })
			if err := wl.w.Setup(e, sf); err != nil {
				t.Fatal(err)
			}
			for _, q := range wl.queries {
				if cfg.sys == harness.IC && wl.w == harness.TPCH && icSkips[q.label] {
					continue
				}
				for _, stmt := range q.setup {
					if _, err := e.Exec(stmt); err != nil {
						t.Fatalf("%s %s setup: %v", wl.w, q.label, err)
					}
				}
				fmt.Fprintf(&out, "%s %d %s %s ", cfg.sys, cfg.sites, wl.w, q.label)
				res, err := e.Query(q.sql)
				if err != nil {
					fmt.Fprintf(&out, "error: %v\n", err)
					continue
				}
				s := res.Stats
				if s.Spans != s.Instances+s.Retries+s.AdaptiveReplans {
					t.Errorf("%s %d %s %s: span ledger broken: spans=%d instances=%d retries=%d replans=%d",
						cfg.sys, cfg.sites, wl.w, q.label, s.Spans, s.Instances, s.Retries, s.AdaptiveReplans)
				}
				h := fnv.New64a()
				h.Write([]byte(rowsChecksum(res.Rows)))
				fmt.Fprintf(&out, "rows=%d hash=%016x modeled=%d work=%016x bytes=%016x instances=%d spans=%d\n",
					len(res.Rows), h.Sum64(), s.Modeled.Nanoseconds(), math.Float64bits(s.Work),
					math.Float64bits(s.BytesShipped), s.Instances, s.Spans)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updateModeled {
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
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
