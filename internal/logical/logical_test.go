package logical

import (
	"strings"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/types"
)

func scan(name string, cols ...string) *Scan {
	t := &catalog.Table{Name: name, PrimaryKey: []string{cols[0]}}
	for _, c := range cols {
		t.Columns = append(t.Columns, catalog.Column{Name: c, Kind: types.KindInt})
	}
	return NewScan(t, "")
}

func TestScanSchemaQualified(t *testing.T) {
	s := scan("emp", "id", "dept")
	fs := s.Schema()
	if fs[0].Name != "emp.id" || fs[1].Name != "emp.dept" {
		t.Errorf("schema = %v", fs)
	}
	aliased := NewScan(s.Table, "e")
	if aliased.Schema()[0].Name != "e.id" {
		t.Errorf("aliased schema = %v", aliased.Schema())
	}
}

func TestJoinSchemas(t *testing.T) {
	l := scan("a", "x")
	r := scan("b", "y", "z")
	inner := NewJoin(l, r, JoinInner, expr.True)
	if len(inner.Schema()) != 3 {
		t.Errorf("inner width = %d", len(inner.Schema()))
	}
	semi := NewJoin(l, r, JoinSemi, expr.True)
	if len(semi.Schema()) != 1 {
		t.Errorf("semi width = %d", len(semi.Schema()))
	}
	anti := NewJoin(l, r, JoinAnti, expr.True)
	if len(anti.Schema()) != 1 {
		t.Errorf("anti width = %d", len(anti.Schema()))
	}
	if !JoinSemi.ProjectsLeftOnly() || JoinLeft.ProjectsLeftOnly() {
		t.Error("ProjectsLeftOnly misclassifies")
	}
}

func TestDigestsDistinguishPlans(t *testing.T) {
	a := scan("a", "x")
	f1 := NewFilter(a, expr.NewBinOp(expr.OpGt, expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(1))))
	f2 := NewFilter(a, expr.NewBinOp(expr.OpGt, expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(2))))
	if f1.Digest() == f2.Digest() {
		t.Error("different filters share a digest")
	}
	f1b := NewFilter(a, expr.NewBinOp(expr.OpGt, expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(1))))
	if f1.Digest() != f1b.Digest() {
		t.Error("identical plans have different digests")
	}
	// Correlate marker participates in the digest.
	j1 := NewJoin(a, scan("b", "y"), JoinSemi, expr.True)
	j2 := NewJoin(a, scan("b", "y"), JoinSemi, expr.True)
	j2.FromCorrelate = true
	if j1.Digest() == j2.Digest() {
		t.Error("correlate flag not in digest")
	}
}

func TestWithInputsRoundTrip(t *testing.T) {
	a := scan("a", "x")
	b := scan("b", "y")
	nodes := []Node{
		NewFilter(a, expr.True),
		IdentityProject(a, []int{0}),
		NewJoin(a, b, JoinInner, expr.True),
		NewAggregate(a, []int{0}, []expr.AggCall{{Func: expr.AggCount}}),
		NewSort(a, []types.SortKey{{Col: 0}}),
		NewLimit(a, 5),
	}
	for _, n := range nodes {
		rebuilt := n.WithInputs(n.Inputs())
		if rebuilt.Digest() != n.Digest() {
			t.Errorf("WithInputs round trip changed %s", n.Digest())
		}
	}
}

func TestCountJoinsAndNesting(t *testing.T) {
	a, b, c, d := scan("a", "x"), scan("b", "y"), scan("c", "z"), scan("d", "w")
	j1 := NewJoin(a, b, JoinInner, expr.True)
	j2 := NewJoin(j1, c, JoinInner, expr.True)
	j3 := NewJoin(j2, d, JoinInner, expr.True)
	plan := NewFilter(j3, expr.True)
	if got := CountJoins(plan); got != 3 {
		t.Errorf("CountJoins = %d", got)
	}
	if got := MaxJoinNesting(plan); got != 3 {
		t.Errorf("MaxJoinNesting = %d", got)
	}
	// Bushy: nesting is the deepest chain.
	j4 := NewJoin(NewJoin(a, b, JoinInner, expr.True), NewJoin(c, d, JoinInner, expr.True), JoinInner, expr.True)
	if got := MaxJoinNesting(j4); got != 2 {
		t.Errorf("bushy nesting = %d", got)
	}
}

func TestTransformRebuildsChangedPaths(t *testing.T) {
	a := scan("a", "x")
	plan := NewLimit(NewFilter(a, expr.True), 3)
	visited := 0
	out := Transform(plan, func(n Node) Node {
		visited++
		if f, ok := n.(*Filter); ok {
			return f.Input // drop the filter
		}
		return n
	})
	if visited != 3 {
		t.Errorf("visited = %d", visited)
	}
	lim, ok := out.(*Limit)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := lim.Input.(*Scan); !ok {
		t.Errorf("filter not dropped: %T", lim.Input)
	}
}

func TestWalkStopsOnFalse(t *testing.T) {
	a := scan("a", "x")
	plan := NewFilter(NewFilter(a, expr.True), expr.True)
	count := 0
	Walk(plan, func(n Node) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("walk visited %d nodes after stop", count)
	}
}

func TestAggregateSchemaAndDistinct(t *testing.T) {
	a := scan("a", "x", "y")
	agg := NewAggregate(a, []int{1}, []expr.AggCall{
		{Func: expr.AggSum, Arg: expr.NewColRef(0, types.KindInt, ""), Name: "total"},
	})
	fs := agg.Schema()
	if len(fs) != 2 || fs[0].Name != "a.y" || fs[1].Name != "total" {
		t.Errorf("agg schema = %v", fs)
	}
	if agg.HasDistinct() {
		t.Error("HasDistinct false positive")
	}
	agg2 := NewAggregate(a, nil, []expr.AggCall{
		{Func: expr.AggCount, Arg: expr.NewColRef(0, types.KindInt, ""), Distinct: true},
	})
	if !agg2.HasDistinct() {
		t.Error("HasDistinct false negative")
	}
}

func TestDigestReadable(t *testing.T) {
	a := scan("a", "x")
	plan := NewLimit(NewSort(NewFilter(a, expr.True), []types.SortKey{{Col: 0, Desc: true}}), 10)
	out := plan.Digest()
	for _, want := range []string{"Limit(10)", "Sort(0 desc)", "Filter(", "Scan(a as a)"} {
		if !strings.Contains(out, want) {
			t.Errorf("digest missing %q:\n%s", want, out)
		}
	}
}

func TestValuesNode(t *testing.T) {
	v := NewValues(types.Fields{{Name: "c", Kind: types.KindInt}},
		[]types.Row{{types.NewInt(1)}, {types.NewInt(2)}})
	if len(v.Schema()) != 1 || len(v.Rows) != 2 {
		t.Errorf("values = %v", v)
	}
	if v.Digest() == "" || len(v.Inputs()) != 0 {
		t.Error("values digest/inputs wrong")
	}
}
