package ref

import (
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

func fixture(t *testing.T) (*storage.Store, *catalog.Table, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	emp := &catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "dept", Kind: types.KindInt},
		},
		PrimaryKey: []string{"id"},
	}
	dept := &catalog.Table{
		Name: "dept",
		Columns: []catalog.Column{
			{Name: "dept_id", Kind: types.KindInt},
			{Name: "dname", Kind: types.KindString},
		},
		PrimaryKey: []string{"dept_id"},
	}
	if err := cat.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(dept); err != nil {
		t.Fatal(err)
	}
	st := storage.NewReplicatedStore(cat, 3, 0)
	var empRows []types.Row
	for i := 0; i < 20; i++ {
		empRows = append(empRows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))})
	}
	if err := st.Load("emp", empRows); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("dept", []types.Row{
		{types.NewInt(0), types.NewString("eng")},
		{types.NewInt(1), types.NewString("ops")},
	}); err != nil {
		t.Fatal(err)
	}
	return st, emp, dept
}

func TestScanReadsAllSites(t *testing.T) {
	st, emp, _ := fixture(t)
	rows, err := Execute(logical.NewScan(emp, ""), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Errorf("scan rows = %d", len(rows))
	}
}

func TestFilterProjectSortLimit(t *testing.T) {
	st, emp, _ := fixture(t)
	scan := logical.NewScan(emp, "")
	plan := logical.NewLimit(
		logical.NewSort(
			logical.IdentityProject(
				logical.NewFilter(scan, expr.NewBinOp(expr.OpGe,
					expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(15)))),
				[]int{0}),
			[]types.SortKey{{Col: 0, Desc: true}}),
		3)
	rows, err := Execute(plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Int() != 19 || rows[2][0].Int() != 17 {
		t.Errorf("rows = %v", rows)
	}
}

func TestJoinTypes(t *testing.T) {
	st, emp, dept := fixture(t)
	e := logical.NewScan(emp, "")
	d := logical.NewScan(dept, "")
	cond := expr.NewBinOp(expr.OpEq,
		expr.NewColRef(1, types.KindInt, ""), expr.NewColRef(2, types.KindInt, ""))
	inner, err := Execute(logical.NewJoin(e, d, logical.JoinInner, cond), st)
	if err != nil {
		t.Fatal(err)
	}
	// depts 0 and 1 exist: 7 + 7 emps = 14 matches (i%3 in {0,1}).
	if len(inner) != 14 {
		t.Errorf("inner rows = %d", len(inner))
	}
	left, _ := Execute(logical.NewJoin(e, d, logical.JoinLeft, cond), st)
	if len(left) != 20 {
		t.Errorf("left rows = %d", len(left))
	}
	nulls := 0
	for _, r := range left {
		if r[2].IsNull() {
			nulls++
		}
	}
	if nulls != 6 {
		t.Errorf("null-padded rows = %d", nulls)
	}
	semi, _ := Execute(logical.NewJoin(e, d, logical.JoinSemi, cond), st)
	if len(semi) != 14 {
		t.Errorf("semi rows = %d", len(semi))
	}
	anti, _ := Execute(logical.NewJoin(e, d, logical.JoinAnti, cond), st)
	if len(anti) != 6 {
		t.Errorf("anti rows = %d", len(anti))
	}
}

func TestAggregate(t *testing.T) {
	st, emp, _ := fixture(t)
	scan := logical.NewScan(emp, "")
	agg := logical.NewAggregate(scan, []int{1}, []expr.AggCall{
		{Func: expr.AggCount, Name: "n"},
		{Func: expr.AggMax, Arg: expr.NewColRef(0, types.KindInt, ""), Name: "m"},
	})
	rows, err := Execute(agg, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		want := int64(7)
		if r[0].Int() == 2 {
			want = 6
		}
		if r[1].Int() != want {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
	}
	// Scalar aggregate over empty input yields one row.
	empty := logical.NewFilter(scan, expr.False)
	scalar := logical.NewAggregate(empty, nil, []expr.AggCall{{Func: expr.AggCount}})
	rows, _ = Execute(scalar, st)
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("scalar agg = %v", rows)
	}
}

func TestValues(t *testing.T) {
	st, _, _ := fixture(t)
	v := logical.NewValues(types.Fields{{Name: "x", Kind: types.KindInt}},
		[]types.Row{{types.NewInt(7)}})
	rows, err := Execute(v, st)
	if err != nil || len(rows) != 1 {
		t.Errorf("values = %v, %v", rows, err)
	}
}
