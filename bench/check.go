package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gignite/internal/types"
)

// sameRows reports how got differs from want as multisets of rows. Floats
// compare with a relative tolerance: the reference interpreter sums in a
// different order than the distributed aggregates do.
func sameRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := canonicalOrder(got), canonicalOrder(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range g[i] {
			if !sameValue(g[i][c], w[i][c]) {
				return fmt.Errorf("row %d column %d: %s, want %s", i, c, g[i], w[i])
			}
		}
	}
	return nil
}

// canonicalOrder sorts a copy of rows by a text key that rounds floats to
// cents, so float noise cannot reorder otherwise equal rows.
func canonicalOrder(rows []types.Row) []types.Row {
	type keyed struct {
		key string
		row types.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for c, v := range r {
			if v.K == types.KindFloat {
				parts[c] = fmt.Sprintf("%.2f", v.F)
			} else {
				parts[c] = v.String()
			}
		}
		ks[i] = keyed{strings.Join(parts, "|"), r}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	out := make([]types.Row, len(rows))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out
}

func sameValue(a, b types.Value) bool {
	if a.K == types.KindFloat || b.K == types.KindFloat {
		if !a.K.Numeric() || !b.K.Numeric() {
			return false
		}
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-6*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return types.Equal(a, b)
}

// identicalRows reports the first difference between two results that
// must match bit for bit, order included (engine vs staged pipeline).
func identicalRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				return fmt.Errorf("row %d column %d: %s, want %s", i, c, got[i], want[i])
			}
		}
	}
	return nil
}
