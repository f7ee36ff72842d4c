package fragment_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gignite/internal/fragment"
	"gignite/internal/physical"
)

// updateFilters makes TestRuntimeFilterPlanGolden rewrite
// testdata/filters.golden from the current filter planner instead of
// comparing against it.
var updateFilters = flag.Bool("update-filters", false, "TestRuntimeFilterPlanGolden: rewrite testdata/filters.golden")

const filtersGolden = "../../testdata/filters.golden"

// TestRuntimeFilterPlanGolden pins which runtime filters get planned
// (DESIGN.md §13) on every TPC-H and SSB plan under IC, IC+ and IC+M on
// 1 and 4 sites: each filter's edge, its build subtree and key columns,
// and its pushdown node and key columns there. The presets behind
// plans.golden run with filters off, so nothing else pins them. Rewrite
// the file with -update-filters only for a change that means to move
// filter placement.
func TestRuntimeFilterPlanGolden(t *testing.T) {
	var sb strings.Builder
	eachPlan(t, []int{1, 4}, func(label string, pp physical.Node) {
		fp := fragment.Split(pp)
		fragment.PlanRuntimeFilters(fp)
		fmt.Fprintf(&sb, "%s: %d filters\n", label, len(fp.Filters))
		for _, rf := range fp.Filters {
			fmt.Fprintf(&sb, "  %s\n  build cols %v\n", rf.Describe(), rf.BuildCols)
			for _, line := range strings.Split(strings.TrimSuffix(physical.Format(rf.BuildRoot), "\n"), "\n") {
				fmt.Fprintf(&sb, "    %s\n", line)
			}
			if rf.ProbeNode == nil {
				sb.WriteString("  probe node none\n")
				continue
			}
			fmt.Fprintf(&sb, "  probe node %s cols %v\n", rf.ProbeNode.Describe(), rf.ProbeNodeCols)
		}
	})
	got := sb.String()
	if *updateFilters {
		if err := os.WriteFile(filtersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filtersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(data), "\n"), strings.Split(got, "\n")
	for i := range max(len(want), len(have)) {
		var w, h string
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, h, w)
		}
	}
}
