package catalog

import (
	"testing"

	"gignite/internal/types"
)

func testTable() *Table {
	return &Table{
		Name: "emp",
		Columns: []Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "name", Kind: types.KindString},
			{Name: "dept", Kind: types.KindInt},
		},
		PrimaryKey: []string{"id"},
		Indexes: []Index{
			{Name: "emp_pk", Columns: []string{"id"}},
			{Name: "emp_dept", Columns: []string{"dept"}},
		},
	}
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.AddTable(testTable()); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	tb, err := c.Table("EMP") // case-insensitive
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if tb.AffinityKey != "id" {
		t.Errorf("default affinity key = %q, want id", tb.AffinityKey)
	}
	if got := tb.ColumnIndex("DEPT"); got != 2 {
		t.Errorf("ColumnIndex(DEPT) = %d", got)
	}
	if got := tb.AffinityOrdinal(); got != 0 {
		t.Errorf("AffinityOrdinal = %d", got)
	}
	fs := tb.Fields()
	if len(fs) != 3 || fs[1].Kind != types.KindString {
		t.Errorf("Fields = %v", fs)
	}
	if idx := tb.IndexByName("EMP_DEPT"); idx == nil || idx.Columns[0] != "dept" {
		t.Errorf("IndexByName = %v", idx)
	}
	if names := c.Tables(); len(names) != 1 || names[0] != "emp" {
		t.Errorf("Tables = %v", names)
	}
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	if err := c.AddTable(&Table{Name: ""}); err == nil {
		t.Error("accepted empty name")
	}
	if err := c.AddTable(&Table{Name: "x"}); err == nil {
		t.Error("accepted no columns")
	}
	dup := testTable()
	dup.Columns = append(dup.Columns, Column{Name: "ID", Kind: types.KindInt})
	if err := c.AddTable(dup); err == nil {
		t.Error("accepted duplicate column (case-insensitive)")
	}
	noKey := &Table{Name: "n", Columns: []Column{{Name: "a", Kind: types.KindInt}}}
	if err := c.AddTable(noKey); err == nil {
		t.Error("accepted partitioned table without affinity key")
	}
	badAff := &Table{Name: "b", Columns: []Column{{Name: "a", Kind: types.KindInt}}, AffinityKey: "zzz"}
	if err := c.AddTable(badAff); err == nil {
		t.Error("accepted unknown affinity column")
	}
	repAff := &Table{Name: "r", Columns: []Column{{Name: "a", Kind: types.KindInt}},
		Replicated: true, AffinityKey: "a"}
	if err := c.AddTable(repAff); err == nil {
		t.Error("accepted replicated table with affinity key")
	}
	badIdx := testTable()
	badIdx.Name = "emp2"
	badIdx.Indexes = []Index{{Name: "i", Columns: []string{"nope"}}}
	if err := c.AddTable(badIdx); err == nil {
		t.Error("accepted index on unknown column")
	}
	if err := c.AddTable(testTable()); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	if err := c.AddTable(testTable()); err == nil {
		t.Error("accepted duplicate table")
	}
}

func TestReplicatedTable(t *testing.T) {
	c := New()
	rep := &Table{
		Name:       "nation",
		Columns:    []Column{{Name: "n_nationkey", Kind: types.KindInt}},
		Replicated: true,
	}
	if err := c.AddTable(rep); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	tb, _ := c.Table("nation")
	if tb.AffinityOrdinal() != -1 {
		t.Error("replicated table has affinity ordinal")
	}
}

func TestStatsProviders(t *testing.T) {
	c := New()
	tb := testTable()
	tb.Stats = &TableStats{
		RowCount: 100,
		NDV:      map[string]int64{"id": 100, "dept": 7},
	}
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if got := c.RowCount("emp"); got != 100 {
		t.Errorf("RowCount = %d", got)
	}
	if got := c.NDV("emp", "DEPT"); got != 7 {
		t.Errorf("NDV(dept) = %d", got)
	}
	if got := c.NDV("emp", "name"); got != 0 {
		t.Errorf("NDV(name) = %d, want 0 (unknown)", got)
	}
	if got := c.RowCount("missing"); got != 0 {
		t.Errorf("RowCount(missing) = %d", got)
	}
	// Nil-stats fallback.
	var ts *TableStats
	if ts.NDVOf("x") != 0 {
		t.Error("nil TableStats NDVOf != 0")
	}
}
