package cost

import (
	"math"
	"testing"
)

func TestCostArithmetic(t *testing.T) {
	a := Cost{CPU: 1, Memory: 2, IO: 0, Network: 3}
	b := Cost{CPU: 10, Memory: 20, Network: 30}
	sum := a.Plus(b)
	if sum.CPU != 11 || sum.Memory != 22 || sum.Network != 33 {
		t.Errorf("Plus = %+v", sum)
	}
	if got := a.Scalar(); got != 6 {
		t.Errorf("Scalar = %v", got)
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less ordering wrong")
	}
}

func TestLegacyUnitsInflateMemory(t *testing.T) {
	// Equation 4 vs Equation 5: with 10 columns, legacy memory cost is
	// width*AFS = 80x the standardized one, which is the §4.2 imbalance.
	legacy := Params{LegacyUnits: true}
	std := Params{}
	l := legacy.Sort(1000, 10, 1)
	s := std.Sort(1000, 10, 1)
	if l.CPU != s.CPU {
		t.Errorf("CPU should not change: %v vs %v", l.CPU, s.CPU)
	}
	if l.Memory != 1000*10*AFS {
		t.Errorf("legacy memory = %v", l.Memory)
	}
	if s.Memory != 1000 {
		t.Errorf("standardized memory = %v", s.Memory)
	}
	if l.Memory/s.Memory != 10*AFS {
		t.Errorf("inflation factor = %v", l.Memory/s.Memory)
	}
}

func TestDistributionFactorRewardsPartitionedWork(t *testing.T) {
	p := Params{UseDistributionFactor: true}
	whole := p.Sort(4000, 4, 1)
	dist := p.Sort(4000, 4, 4)
	if dist.Scalar() >= whole.Scalar() {
		t.Errorf("distributed sort not cheaper: %v vs %v", dist.Scalar(), whole.Scalar())
	}
	// Baseline params ignore the factor entirely.
	base := Params{}
	if got := base.Sort(4000, 4, 4); got != base.Sort(4000, 4, 1) {
		t.Errorf("baseline applied df: %+v", got)
	}
}

func TestExchangePenaltyBug(t *testing.T) {
	fixed := Params{}
	bugged := Params{ExchangePenaltyBug: true}
	single := fixed.Exchange(1000, 4, 1, 1)
	hashEx := fixed.Exchange(1000, 4, 1, 4)
	bcast := fixed.Exchange(1000, 4, 4, 4)
	if hashEx.Network <= single.Network {
		t.Errorf("multi-target penalty missing: %v vs %v", hashEx.Network, single.Network)
	}
	if bcast.Network <= hashEx.Network {
		t.Errorf("broadcast volume not counted: %v vs %v", bcast.Network, hashEx.Network)
	}
	// The penalty is a per-target constant, not a volume multiplier: a
	// hash exchange must not cost as much as shipping everything twice.
	if hashEx.Network >= 2*single.Network {
		t.Errorf("penalty scales with volume: %v vs %v", hashEx.Network, single.Network)
	}
	// With the bug, every exchange costs what a single-target one does.
	bm := bugged.Exchange(1000, 4, 4, 4)
	bs := bugged.Exchange(1000, 4, 1, 1)
	if bm != bs {
		t.Errorf("bugged exchange should ignore targets: %+v vs %+v", bm, bs)
	}
}

func TestHashJoinFavorsSmallLocalBuild(t *testing.T) {
	p := Params{UseDistributionFactor: true}
	// Equation 7: df applies to the right (build) side only.
	local := p.HashJoin(100000, 8000, 4, 4)   // build on local partition
	shipped := p.HashJoin(100000, 8000, 4, 1) // build on shipped data
	if local.Scalar() >= shipped.Scalar() {
		t.Errorf("local build not rewarded: %v vs %v", local.Scalar(), shipped.Scalar())
	}
	if local.Memory != 2000 {
		t.Errorf("hash memory = %v, want |B|/df = 2000", local.Memory)
	}
}

// TestHashVsMergeCrossover reproduces §5.1.3: as relations grow, the sort
// cost makes merge join lose to hash join (df = 1 case).
func TestHashVsMergeCrossover(t *testing.T) {
	p := Params{}
	mjTotal := func(n float64) float64 {
		// Merge join plus the two sorts it requires.
		return p.MergeJoin(n, n, 1, 1).Scalar() +
			p.Sort(n, 4, 1).Scalar() + p.Sort(n, 4, 1).Scalar()
	}
	hjTotal := func(n float64) float64 {
		return p.HashJoin(n, n, 4, 1).Scalar()
	}
	if hjTotal(1000000) >= mjTotal(1000000) {
		t.Errorf("hash join should win at 1M rows: hj=%v mj=%v",
			hjTotal(1000000), mjTotal(1000000))
	}
	// With sorts removed (inputs already sorted), merge join wins at any
	// size — the paper's "if both sorting costs are removed" case.
	if p.MergeJoin(1e6, 1e6, 1, 1).Scalar() >= hjTotal(1e6) {
		t.Errorf("pure merge should beat hash: mj=%v hj=%v",
			p.MergeJoin(1e6, 1e6, 1, 1).Scalar(), hjTotal(1e6))
	}
}

func TestNestedLoopQuadratic(t *testing.T) {
	p := Params{}
	small := p.NestedLoopJoin(100, 100, 4, 1)
	big := p.NestedLoopJoin(1000, 1000, 4, 1)
	ratio := big.CPU / small.CPU
	if math.Abs(ratio-100) > 2 {
		t.Errorf("NLJ cost not quadratic: ratio = %v", ratio)
	}
}

func TestSortAggregateCheaperThanHash(t *testing.T) {
	p := Params{}
	sa := p.SortAggregate(100000, 1)
	ha := p.HashAggregate(100000, 1000, 4, 1)
	if sa.Scalar() >= ha.Scalar() {
		t.Errorf("sort agg should be cheaper on sorted input: %v vs %v",
			sa.Scalar(), ha.Scalar())
	}
}

func TestScanFilterProjectLimitCosts(t *testing.T) {
	p := Params{}
	if c := p.Scan(1000, 4, 1); c.CPU != 1000*RPTC || c.Memory != 1000 {
		t.Errorf("scan = %+v", c)
	}
	if c := p.Filter(1000, 1); c.CPU != 1000*(RPTC+RCC) {
		t.Errorf("filter = %+v", c)
	}
	if c := p.Limit(10); c.CPU != 10*RPTC {
		t.Errorf("limit = %+v", c)
	}
	if c := p.Project(10, 2, 1); c.CPU != 10*RPTC {
		t.Errorf("project = %+v", c)
	}
}
