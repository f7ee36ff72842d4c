package harness

import (
	"fmt"

	"gignite"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

// MetricsSchema versions the benchrunner -metrics JSON file. The file is
// one MetricsFile object:
//
//	{
//	  "schema":   "gignite.metrics/v2",
//	  "system":   "IC+M",            // system variant
//	  "workload": "TPC-H",
//	  "sf":       0.1,               // scale factor
//	  "sites":    4,                 // simulated processing sites
//	  "queries":  [ ... ],           // one LabeledReport per query run
//	  "engine":   { ... }            // cumulative obs.Snapshot: counters,
//	}                                // gauges, histograms
//
// Each element of "queries" is the engine's own gignite.QueryReport (see
// its field documentation) with the benchmark's query label added; v1
// carried a renamed copy of the same numbers. All deterministic fields
// are identical across hosts and worker counts; wall_ns is host
// measurement.
const MetricsSchema = "gignite.metrics/v2"

// LabeledReport is one benchmark query run: the engine's report under the
// query's benchmark label.
type LabeledReport struct {
	Label string `json:"label"`
	*gignite.QueryReport
}

// MetricsFile is the top-level -metrics JSON document (see MetricsSchema).
type MetricsFile struct {
	Schema   string          `json:"schema"`
	System   string          `json:"system"`
	Workload string          `json:"workload"`
	SF       float64         `json:"sf"`
	Sites    int             `json:"sites"`
	Queries  []LabeledReport `json:"queries"`
	Engine   obs.Snapshot    `json:"engine"`
}

// CollectMetrics runs the selected TPC-H queries once each on one engine
// and returns the metrics document plus the raw per-query observation
// records (for trace export). ids selects TPC-H query numbers; nil runs
// the full paper set.
func CollectMetrics(env *Env, sys System, sites int, sf float64, ids []int) (*MetricsFile, []*obs.QueryObs, error) {
	e, err := env.Engine(TPCH, sys, sites, sf)
	if err != nil {
		return nil, nil, err
	}
	if len(ids) == 0 {
		for _, q := range tpch.Queries() {
			if !q.RequiresViews && q.ID != 20 {
				ids = append(ids, q.ID)
			}
		}
	}
	mf := &MetricsFile{
		Schema: MetricsSchema, System: string(sys),
		Workload: TPCH.String(), SF: sf, Sites: sites,
	}
	var traces []*obs.QueryObs
	for _, id := range ids {
		q := tpch.QueryByID(id)
		if q == nil {
			return nil, nil, fmt.Errorf("harness: unknown TPC-H query %d", id)
		}
		label := fmt.Sprintf("Q%d", q.ID)
		res, err := e.Query(q.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: %s: %w", label, err)
		}
		if res.Obs != nil {
			res.Obs.Label = label
			traces = append(traces, res.Obs)
		}
		mf.Queries = append(mf.Queries, LabeledReport{label, res.Report()})
	}
	mf.Engine = e.Metrics()
	return mf, traces, nil
}
