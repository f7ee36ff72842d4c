package gignite

import (
	"slices"
	"time"
)

// QueryReport is the unified per-query report of the v1 API: one
// JSON-serializable view over everything the engine observed about a
// SELECT — response times, execution telemetry, the per-operator
// estimate-vs-actual table and the adaptive replan log. Every field
// except Wall is deterministic: identical across hosts, worker counts and
// fault-free re-runs.
type QueryReport struct {
	// Columns names the result columns and RowCount counts the tuples
	// (the rows themselves stay on the Result).
	Columns  []string `json:"columns,omitempty"`
	RowCount int      `json:"rows"`
	// Modeled is the simnet cost-clock response time; Wall the host wall
	// time of this execution.
	Modeled time.Duration `json:"modeled_ns"`
	Wall    time.Duration `json:"wall_ns"`
	// PlanDigest is a stable hash of the fragmented physical plan.
	PlanDigest string `json:"plan_digest,omitempty"`
	// Stats is the execution telemetry (work, bytes, instances, retries,
	// governance and adaptive counters).
	Stats ExecStats `json:"stats"`
	// Operators is the estimate-vs-actual report, one row per operator
	// in fragment order.
	Operators []OperatorReport `json:"operators,omitempty"`
	// Replans logs the adaptive plan changes applied at wave barriers
	// (empty unless Config.AdaptiveExec rewrote something).
	Replans []ReplanReport `json:"replans,omitempty"`
}

// OperatorReport is one row of the estimate-vs-actual table.
type OperatorReport struct {
	// Frag is the fragment the operator executed in.
	Frag int `json:"frag"`
	// Op is the operator's plan-text description.
	Op string `json:"op"`
	// EstRows is the planner's cardinality estimate, ActRows the rows
	// the operator actually emitted (summed over successful instances)
	// and QError the symmetric (est+1)/(act+1) ratio, always >= 1.
	EstRows float64 `json:"est_rows"`
	ActRows int64   `json:"act_rows"`
	QError  float64 `json:"qerror"`
	// Work is the operator's own modeled work.
	Work float64 `json:"work"`
}

// ReplanReport is one adaptive plan change (DESIGN.md §17).
type ReplanReport struct {
	// Wave is the completed wave whose barrier triggered the change and
	// Frag the pending fragment whose plan changed.
	Wave int `json:"wave"`
	Frag int `json:"frag"`
	// Kind names the trigger: "build-swap" or "variant-regrade". Op
	// describes the rewritten operator; From/To the strategy before and
	// after.
	Kind string `json:"kind"`
	Op   string `json:"op"`
	From string `json:"from"`
	To   string `json:"to"`
	// EstRows is the planner's estimate and ActRows the runtime actual
	// that fired the trigger.
	EstRows float64 `json:"est_rows"`
	ActRows int64   `json:"act_rows"`
}

// Report assembles the unified QueryReport for a SELECT result. For
// DDL/DML and plain EXPLAIN results the report carries only the column
// and row counts. The report is built fresh on every call; mutating it
// does not affect the Result.
func (r *Result) Report() *QueryReport {
	rep := &QueryReport{
		Columns:  slices.Clone(r.Columns),
		RowCount: len(r.Rows),
		Modeled:  r.Modeled,
		Stats:    r.Stats,
	}
	q := r.Obs
	if q == nil {
		return rep
	}
	rep.PlanDigest = q.PlanDigest
	rep.Wall = time.Duration(q.WallNanos)
	for _, fo := range q.Fragments {
		if fo == nil {
			continue
		}
		for _, op := range fo.Ops {
			rep.Operators = append(rep.Operators, OperatorReport{
				Frag: fo.Frag, Op: op.Op,
				EstRows: op.EstRows, ActRows: op.RowsOut,
				QError: qerror(op.EstRows, float64(op.RowsOut)), Work: op.Work,
			})
		}
	}
	for _, rp := range q.Replans {
		rep.Replans = append(rep.Replans, ReplanReport{
			Wave: rp.Wave, Frag: rp.Frag, Kind: rp.Kind, Op: rp.Op,
			From: rp.From, To: rp.To, EstRows: rp.EstRows, ActRows: rp.ActRows,
		})
	}
	return rep
}
