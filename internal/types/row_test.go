package types

import (
	"testing"
	"testing/quick"
)

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone shares backing storage")
	}
}

func TestRowConcat(t *testing.T) {
	a := Row{NewInt(1)}
	b := Row{NewInt(2), NewInt(3)}
	c := a.Concat(b)
	if len(c) != 3 || c[0].Int() != 1 || c[2].Int() != 3 {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias its inputs.
	c[0] = NewInt(42)
	if a[0].Int() != 1 {
		t.Error("Concat aliases left input")
	}
}

func TestEqualOn(t *testing.T) {
	a := Row{NewInt(1), NewString("x")}
	b := Row{NewString("x"), NewInt(1)}
	if !EqualOn(a, []int{0, 1}, b, []int{1, 0}) {
		t.Error("EqualOn cross-offset mismatch")
	}
	if EqualOn(a, []int{0}, b, []int{0}) {
		t.Error("EqualOn(1, \"x\") reported equal")
	}
}

func TestEqualOnMismatchedKeysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EqualOn with mismatched key lengths did not panic")
		}
	}()
	EqualOn(Row{NewInt(1)}, []int{0}, Row{NewInt(1)}, nil)
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("a")}
	keys := []SortKey{{Col: 0}, {Col: 1}}
	if got := CompareRows(a, b, keys); got != 1 {
		t.Errorf("CompareRows asc = %d, want 1", got)
	}
	keysDesc := []SortKey{{Col: 1, Desc: true}}
	if got := CompareRows(a, b, keysDesc); got != -1 {
		t.Errorf("CompareRows desc = %d, want -1", got)
	}
	if got := CompareRows(a, a, keys); got != 0 {
		t.Errorf("CompareRows self = %d, want 0", got)
	}
}

func TestCompareRowsNullsLast(t *testing.T) {
	a := Row{Null}
	b := Row{NewInt(5)}
	k := []SortKey{{Col: 0, NullsLast: true}}
	if got := CompareRows(a, b, k); got != 1 {
		t.Errorf("NULL should sort last: got %d", got)
	}
	if got := CompareRows(b, a, k); got != -1 {
		t.Errorf("non-NULL should sort first: got %d", got)
	}
	if got := CompareRows(a, a, k); got != 0 {
		t.Errorf("NULL vs NULL = %d, want 0", got)
	}
	// Default: NULLs first.
	if got := CompareRows(a, b, []SortKey{{Col: 0}}); got != -1 {
		t.Errorf("default NULL ordering = %d, want -1", got)
	}
}

func TestRowHashProperty(t *testing.T) {
	// Rows equal on key columns hash equally on those columns.
	f := func(a, b int64, s string) bool {
		r1 := Row{NewInt(a), NewString(s), NewInt(b)}
		r2 := Row{NewInt(a), NewString(s), NewInt(b + 1)}
		return r1.Hash([]int{0, 1}) == r2.Hash([]int{0, 1})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldsConcat(t *testing.T) {
	a := Fields{{Name: "a", Kind: KindInt}}
	b := Fields{{Name: "b", Kind: KindString}}
	c := a.Concat(b)
	if len(c) != 2 || c[1].Name != "b" {
		t.Errorf("Concat = %v", c)
	}
	if got := c.String(); got != "(a BIGINT, b VARCHAR)" {
		t.Errorf("Fields.String() = %q", got)
	}
	if names := c.Names(); len(names) != 2 || names[0] != "a" {
		t.Errorf("Names() = %v", names)
	}
}
