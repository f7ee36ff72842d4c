// Package ref is a naive single-node reference executor: it interprets a
// logical plan directly (nested-loop joins, hash aggregation), without any
// optimizer rewrites, physical operators, distribution or fragmentation.
// Integration tests cross-check the full distributed engine's results
// against it — the two implementations share only the binder and the
// expression evaluator, so a disagreement indicates a bug in the planner
// rules, the physical operators or the distributed runtime.
package ref

import (
	"fmt"
	"sort"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// Execute interprets a logical plan over a store (reading every table in
// full, ignoring partitioning).
func Execute(plan logical.Node, store *storage.Store) ([]types.Row, error) {
	switch t := plan.(type) {
	case *logical.Scan:
		var out []types.Row
		limit := store.Sites()
		if t.Table.Replicated {
			limit = 1
		}
		for site := 0; site < limit; site++ {
			part, err := store.Partition(t.Table.Name, site)
			if err != nil {
				return nil, err
			}
			out = append(out, part...)
		}
		return out, nil

	case *logical.Values:
		return t.Rows, nil

	case *logical.Filter:
		in, err := Execute(t.Input, store)
		if err != nil {
			return nil, err
		}
		var out []types.Row
		for _, r := range in {
			v := t.Cond.Eval(r)
			if v.K == types.KindBool && v.Bool() {
				out = append(out, r)
			}
		}
		return out, nil

	case *logical.Project:
		in, err := Execute(t.Input, store)
		if err != nil {
			return nil, err
		}
		out := make([]types.Row, len(in))
		for i, r := range in {
			row := make(types.Row, len(t.Exprs))
			for j, e := range t.Exprs {
				row[j] = e.Eval(r)
			}
			out[i] = row
		}
		return out, nil

	case *logical.Join:
		return executeJoin(t, store)

	case *logical.Aggregate:
		return executeAggregate(t, store)

	case *logical.Sort:
		in, err := Execute(t.Input, store)
		if err != nil {
			return nil, err
		}
		out := make([]types.Row, len(in))
		copy(out, in)
		sort.SliceStable(out, func(a, b int) bool {
			return types.CompareRows(out[a], out[b], t.Keys) < 0
		})
		return out, nil

	case *logical.Limit:
		in, err := Execute(t.Input, store)
		if err != nil {
			return nil, err
		}
		if int64(len(in)) > t.N {
			in = in[:t.N]
		}
		return in, nil

	default:
		return nil, fmt.Errorf("ref: unsupported node %T", plan)
	}
}

func executeJoin(j *logical.Join, store *storage.Store) ([]types.Row, error) {
	left, err := Execute(j.Left, store)
	if err != nil {
		return nil, err
	}
	right, err := Execute(j.Right, store)
	if err != nil {
		return nil, err
	}
	rightW := len(j.Right.Schema())
	// Equi-key index on the right side keeps the reference executor usable
	// on benchmark-sized inputs. OR-of-AND conditions (TPC-H Q19) first get
	// their common conjuncts pulled out — a semantics-preserving rewrite —
	// so the shared equi key becomes visible; the (rewritten) condition is
	// still evaluated on every candidate pair.
	var conjuncts []expr.Expr
	for _, c := range expr.SplitConjuncts(j.Cond) {
		common, residual := expr.ExtractCommonConjuncts(c)
		conjuncts = append(conjuncts, common...)
		if !expr.IsLiteralTrue(residual) {
			conjuncts = append(conjuncts, residual)
		}
	}
	cond := expr.Conjunction(conjuncts)
	keys, _ := expr.SplitJoinCondition(cond, len(j.Left.Schema()))
	var leftCols, rightCols []int
	var index map[uint64][]types.Row
	if len(keys) > 0 {
		leftCols = make([]int, len(keys))
		rightCols = make([]int, len(keys))
		for i, k := range keys {
			leftCols[i] = k.Left
			rightCols[i] = k.Right
		}
		index = make(map[uint64][]types.Row, len(right))
		for _, r := range right {
			h := r.Hash(rightCols)
			index[h] = append(index[h], r)
		}
	}
	var out []types.Row
	for _, l := range left {
		matched := false
		candidates := right
		if index != nil {
			candidates = index[l.Hash(leftCols)]
		}
		for _, r := range candidates {
			if index != nil && !types.EqualOn(l, leftCols, r, rightCols) {
				continue
			}
			row := l.Concat(r)
			v := cond.Eval(row)
			if v.K != types.KindBool || !v.Bool() {
				continue
			}
			matched = true
			switch j.Type {
			case logical.JoinInner, logical.JoinLeft:
				out = append(out, row)
			case logical.JoinSemi:
				out = append(out, l)
			}
			if j.Type == logical.JoinSemi {
				break
			}
		}
		if !matched {
			switch j.Type {
			case logical.JoinLeft:
				row := l.Clone()
				for i := 0; i < rightW; i++ {
					row = append(row, types.Null)
				}
				out = append(out, row)
			case logical.JoinAnti:
				out = append(out, l)
			}
		}
	}
	return out, nil
}

func executeAggregate(a *logical.Aggregate, store *storage.Store) ([]types.Row, error) {
	in, err := Execute(a.Input, store)
	if err != nil {
		return nil, err
	}
	type group struct {
		key  types.Row
		accs []expr.Accumulator
	}
	groups := make(map[uint64][]*group)
	var order []*group
	for _, r := range in {
		h := r.Hash(a.GroupBy)
		var g *group
		for _, cand := range groups[h] {
			ok := true
			for i, c := range a.GroupBy {
				if !types.Equal(cand.key[i], r[c]) {
					ok = false
					break
				}
			}
			if ok {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: make(types.Row, len(a.GroupBy)), accs: make([]expr.Accumulator, len(a.Aggs))}
			for i, c := range a.GroupBy {
				g.key[i] = r[c]
			}
			for i, call := range a.Aggs {
				g.accs[i] = call.NewAccumulator()
			}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i, acc := range g.accs {
			var v types.Value // COUNT(*) counts whatever it is fed
			if arg := a.Aggs[i].Arg; arg != nil {
				v = arg.Eval(r)
			}
			acc.Add(v)
		}
	}
	if len(a.GroupBy) == 0 && len(order) == 0 {
		g := &group{accs: make([]expr.Accumulator, len(a.Aggs))}
		for i, call := range a.Aggs {
			g.accs[i] = call.NewAccumulator()
		}
		order = append(order, g)
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(a.GroupBy)+len(a.Aggs))
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	return out, nil
}
