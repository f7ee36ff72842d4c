// Package cost implements the Ignite-style operator cost model the paper
// analyzes in §3.2 and improves in §4.2.
//
// A cost is a four-component vector (CPU, Memory, IO, Network); an
// operator's scalar cost is the equal-weighted sum of the components
// (Equation 2). IO is always zero: the system is in-memory.
//
// Two unit regimes are supported:
//
//   - Legacy (Equation 4): memory/network components count bytes
//     (rows × width × AFS) while CPU counts operations. The mismatched
//     units give memory/network an outsized effective weight — the defect
//     §4.2 identifies.
//   - Standardized (Equation 5): every component counts rows, with the
//     column-count factor removed.
//
// The distribution factor (Algorithm 2, Equation 6) rewards operators that
// run on partitioned data by dividing their work by the number of
// partition sites; it is computed by the physical layer and passed in.
package cost

import "math"

// Model constants. RPTC approximates the CPU work to pass one tuple
// through an operator; RCC the work to compare two rows; HAC the work to
// hash a row; AFS the average field size in bytes.
const (
	RPTC = 1.0
	RCC  = 3.0
	HAC  = 2.0
	AFS  = 8.0
)

// Cost is the four-component cost vector of §3.2 (Equation 2).
type Cost struct {
	CPU     float64
	Memory  float64
	IO      float64
	Network float64
}

// Plus adds two costs component-wise.
func (c Cost) Plus(o Cost) Cost {
	return Cost{
		CPU:     c.CPU + o.CPU,
		Memory:  c.Memory + o.Memory,
		IO:      c.IO + o.IO,
		Network: c.Network + o.Network,
	}
}

// Scalar collapses the vector with equal weights (Equation 2).
func (c Cost) Scalar() float64 { return c.CPU + c.Memory + c.IO + c.Network }

// Less orders costs by scalar value.
func (c Cost) Less(o Cost) bool { return c.Scalar() < o.Scalar() }

// Params selects between the baseline (IC) and improved (IC+) cost model
// behaviours.
type Params struct {
	// LegacyUnits selects Equation 4 (bytes for memory/network) instead of
	// Equation 5 (rows everywhere).
	LegacyUnits bool
	// ExchangePenaltyBug reproduces the §4.1 shared-constant defect: the
	// multi-target exchange penalty is never applied.
	ExchangePenaltyBug bool
	// UseDistributionFactor enables Algorithm 2 / Equation 6. The IC
	// baseline has no such factor (equivalent to df = 1 everywhere).
	UseDistributionFactor bool
}

// effectiveDF returns the distribution factor to apply under the params.
func (p Params) effectiveDF(df float64) float64 {
	if !p.UseDistributionFactor || df < 1 {
		return 1
	}
	return df
}

// memNet converts a row count (+ width) into the memory/network unit of
// the active regime.
func (p Params) memNet(rows, width float64) float64 {
	if p.LegacyUnits {
		return rows * width * AFS
	}
	return rows
}

// Scan returns the cost of a base-relation scan producing rows of the
// given width. df is the Algorithm 2 distribution factor of the scan.
func (p Params) Scan(rows, width, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	return Cost{CPU: r * RPTC, Memory: p.memNet(r, width)}
}

// Filter returns the cost of filtering rows (one comparison per row).
func (p Params) Filter(rows, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	return Cost{CPU: r * (RPTC + RCC)}
}

// Project returns the cost of projecting rows.
func (p Params) Project(rows, width, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	return Cost{CPU: r * RPTC, Memory: p.memNet(r, width)}
}

// Sort returns the cost of an in-memory sort (Equations 4–6).
func (p Params) Sort(rows, width, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	logN := math.Log2(math.Max(2, r))
	return Cost{
		CPU:    r*RPTC + r*logN*RCC,
		Memory: p.memNet(r, width),
	}
}

// HashAggregate returns the cost of a hash-based aggregation producing
// groups output rows.
func (p Params) HashAggregate(rows, groups, width, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	g := math.Min(groups, r)
	// Hashing pays a hash plus a probe comparison per row; the streaming
	// sort-based aggregate pays only the comparison, which is what makes
	// it win on pre-sorted input (the paper's Q14 observation).
	return Cost{
		CPU:    r * (RPTC + HAC + RCC),
		Memory: p.memNet(g, width),
	}
}

// SortAggregate returns the cost of a streaming aggregation over sorted
// input — cheaper than hashing and with O(1) memory.
func (p Params) SortAggregate(rows, df float64) Cost {
	df = p.effectiveDF(df)
	r := rows / df
	return Cost{CPU: r * (RPTC + RCC)}
}

// NestedLoopJoin returns the cost of an N×M nested-loop join.
func (p Params) NestedLoopJoin(left, right, rightWidth, df float64) Cost {
	df = p.effectiveDF(df)
	l := left / df
	return Cost{
		CPU:    (l + l*right) * (RPTC + RCC),
		Memory: p.memNet(right, rightWidth),
	}
}

// MergeJoin returns the cost of merging two sorted inputs (Equation 9
// minus the sort costs, which belong to the inputs' Sort operators).
func (p Params) MergeJoin(left, right, dfL, dfR float64) Cost {
	dfL = p.effectiveDF(dfL)
	dfR = p.effectiveDF(dfR)
	return Cost{
		CPU: (left/dfL + right/dfR) * (RCC + RPTC + HAC),
	}
}

// HashJoin returns the cost of the in-memory hash join of §5.1.2
// (Equation 7): the build side is the right relation; the distribution
// factor applies to the right side only, rewarding plans that build the
// hash table on a local partition. The per-row hash charge splits
// asymmetrically: a probe row only computes the hash and looks up
// (HAC/2), while a build row also pays the insert's allocation
// (3·HAC/2). The average per pair-row matches the symmetric Equation 7
// charge, and the asymmetry is what the adaptive build-swap rewrite
// (DESIGN.md §17) exploits when observed sizes invert the estimate.
func (p Params) HashJoin(left, right, rightWidth, dfRight float64) Cost {
	dfRight = p.effectiveDF(dfRight)
	r := right / dfRight
	return Cost{
		CPU:    left*(RCC+RPTC+HAC/2) + r*(RCC+RPTC+1.5*HAC),
		Memory: p.memNet(r, rightWidth),
	}
}

// ExchangePerTargetCost is the fixed per-target penalty of a multi-target
// exchange: each additional destination site costs one more batched
// message stream regardless of volume.
const ExchangePerTargetCost = 200.0

// Exchange returns the cost of shipping rows. copies is the replication
// factor of the shipment (1 for single/hash targets, the site count for
// broadcast); targets counts destination sites. The §4.1 shared-constant
// bug makes a multi-target exchange cost exactly what a single-target one
// does: neither the replication volume nor the per-target penalty is
// applied.
func (p Params) Exchange(rows, width, copies float64, targets int) Cost {
	if copies < 1 {
		copies = 1
	}
	if p.ExchangePenaltyBug {
		return Cost{
			CPU:     rows * RPTC,
			Network: p.memNet(rows, width),
		}
	}
	penalty := 0.0
	if targets > 1 {
		penalty = ExchangePerTargetCost * float64(targets)
	}
	return Cost{
		CPU:     rows * RPTC,
		Network: p.memNet(rows*copies, width) + penalty,
	}
}

// Limit returns the cost of a limit operator.
func (p Params) Limit(rows float64) Cost {
	return Cost{CPU: rows * RPTC}
}
