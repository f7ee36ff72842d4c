package expr

import (
	"math"
	"testing"

	"gignite/internal/types"
)

func rows(vals ...interface{}) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = types.Row{types.NewInt(int64(x))}
		case float64:
			out[i] = types.Row{types.NewFloat(x)}
		case nil:
			out[i] = types.Row{types.Null}
		case string:
			out[i] = types.Row{types.NewString(x)}
		}
	}
	return out
}

func runAgg(call AggCall, input []types.Row) types.Value {
	acc := call.NewAccumulator()
	feed(acc, call, input)
	return acc.Result()
}

// feed adds each row's argument value, as the executor does.
func feed(acc Accumulator, call AggCall, input []types.Row) {
	for _, r := range input {
		var v types.Value
		if call.Arg != nil {
			v = call.Arg.Eval(r)
		}
		acc.Add(v)
	}
}

// Inputs shared by the aggregate tables: the distinct values of each
// arrive in a fixed order, with duplicates and NULLs between them.
var (
	aggInts = rows(3, 1, nil, 4, 1)
	// Distinct values 1e16, 1, -1e16, 0.5: summed in this order they give
	// 0.5 (1e16+1 rounds to 1e16); in most other orders, 1.5.
	aggOrderedFloats = rows(1e16, 1.0, nil, -1e16, 1.0, 0.5, 1e16)
	// -0 and 0 compare and hash equal, so DISTINCT keeps the first: -0.
	aggZeros = rows(math.Copysign(0, -1), 0.0, nil, math.Copysign(0, -1))
	// NaN compares equal to every number but hashes by its bits.
	aggNaNs    = rows(math.NaN(), 2.5, nil, math.NaN())
	aggAllNull = rows(nil, nil, nil)
)

func TestAggregates(t *testing.T) {
	arg := NewColRef(0, types.KindInt, "")
	farg := NewColRef(0, types.KindFloat, "")
	negZero, nan := types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN())
	cases := []struct {
		call  AggCall
		input []types.Row
		want  types.Value
	}{
		{AggCall{Func: AggCount, Arg: arg}, aggInts, types.NewInt(4)},
		{AggCall{Func: AggCount}, aggInts, types.NewInt(5)}, // COUNT(*)
		{AggCall{Func: AggSum, Arg: arg}, aggInts, types.NewInt(9)},
		{AggCall{Func: AggAvg, Arg: arg}, aggInts, types.NewFloat(2.25)},
		{AggCall{Func: AggMin, Arg: arg}, aggInts, types.NewInt(1)},
		{AggCall{Func: AggMax, Arg: arg}, aggInts, types.NewInt(4)},
		{AggCall{Func: AggCount, Arg: arg, Distinct: true}, aggInts, types.NewInt(3)},
		{AggCall{Func: AggSum, Arg: arg, Distinct: true}, aggInts, types.NewInt(8)},
		{AggCall{Func: AggAvg, Arg: arg, Distinct: true}, aggInts, types.NewFloat(8.0 / 3)},
		{AggCall{Func: AggMin, Arg: arg, Distinct: true}, aggInts, types.NewInt(1)},
		{AggCall{Func: AggMax, Arg: arg, Distinct: true}, aggInts, types.NewInt(4)},

		{AggCall{Func: AggCount, Arg: farg, Distinct: true}, aggOrderedFloats, types.NewInt(4)},
		{AggCall{Func: AggSum, Arg: farg, Distinct: true}, aggOrderedFloats, types.NewFloat(0.5)},
		{AggCall{Func: AggAvg, Arg: farg, Distinct: true}, aggOrderedFloats, types.NewFloat(0.125)},
		{AggCall{Func: AggMin, Arg: farg, Distinct: true}, aggOrderedFloats, types.NewFloat(-1e16)},
		{AggCall{Func: AggMax, Arg: farg, Distinct: true}, aggOrderedFloats, types.NewFloat(1e16)},

		{AggCall{Func: AggSum, Arg: farg}, aggZeros, types.NewFloat(0)},
		{AggCall{Func: AggMin, Arg: farg}, aggZeros, negZero},
		{AggCall{Func: AggCount, Arg: farg, Distinct: true}, aggZeros, types.NewInt(1)},
		{AggCall{Func: AggSum, Arg: farg, Distinct: true}, aggZeros, types.NewFloat(0)},
		{AggCall{Func: AggAvg, Arg: farg, Distinct: true}, aggZeros, types.NewFloat(0)},
		{AggCall{Func: AggMin, Arg: farg, Distinct: true}, aggZeros, negZero},
		{AggCall{Func: AggMax, Arg: farg, Distinct: true}, aggZeros, negZero},

		{AggCall{Func: AggCount, Arg: farg, Distinct: true}, aggNaNs, types.NewInt(2)},
		{AggCall{Func: AggSum, Arg: farg, Distinct: true}, aggNaNs, nan},
		{AggCall{Func: AggAvg, Arg: farg, Distinct: true}, aggNaNs, nan},
		{AggCall{Func: AggMin, Arg: farg, Distinct: true}, aggNaNs, nan},
		{AggCall{Func: AggMax, Arg: farg, Distinct: true}, aggNaNs, nan},

		{AggCall{Func: AggCount, Arg: arg, Distinct: true}, aggAllNull, types.NewInt(0)},
		{AggCall{Func: AggSum, Arg: arg, Distinct: true}, aggAllNull, types.Null},
		{AggCall{Func: AggAvg, Arg: arg, Distinct: true}, aggAllNull, types.Null},
		{AggCall{Func: AggMin, Arg: arg, Distinct: true}, aggAllNull, types.Null},
		{AggCall{Func: AggMax, Arg: arg, Distinct: true}, aggAllNull, types.Null},
	}
	for _, c := range cases {
		if got := runAgg(c.call, c.input); !sameValue(got, c.want) {
			t.Errorf("%s over %v = %v, want %v", c.call, c.input, got, c.want)
		}
	}
}

func TestAggregatesEmptyAndAllNull(t *testing.T) {
	arg := NewColRef(0, types.KindInt, "")
	empty := []types.Row(nil)
	allNull := rows(nil, nil)
	for _, f := range []AggFunc{AggSum, AggAvg, AggMin, AggMax} {
		if got := runAgg(AggCall{Func: f, Arg: arg}, empty); !got.IsNull() {
			t.Errorf("%s over empty = %v, want NULL", f, got)
		}
		if got := runAgg(AggCall{Func: f, Arg: arg}, allNull); !got.IsNull() {
			t.Errorf("%s over NULLs = %v, want NULL", f, got)
		}
	}
	if got := runAgg(AggCall{Func: AggCount, Arg: arg}, allNull); got.Int() != 0 {
		t.Errorf("COUNT over NULLs = %v", got)
	}
	if got := runAgg(AggCall{Func: AggCount}, allNull); got.Int() != 2 {
		t.Errorf("COUNT(*) over NULL rows = %v", got)
	}
}

func TestAggFloatSum(t *testing.T) {
	arg := NewColRef(0, types.KindFloat, "")
	got := runAgg(AggCall{Func: AggSum, Arg: arg}, rows(1.5, 2.25))
	if got.K != types.KindFloat || got.F != 3.75 {
		t.Errorf("float SUM = %v", got)
	}
}

func TestAggMinMaxStrings(t *testing.T) {
	arg := NewColRef(0, types.KindString, "")
	input := rows("banana", "apple", "cherry")
	if got := runAgg(AggCall{Func: AggMin, Arg: arg}, input); got.Str() != "apple" {
		t.Errorf("MIN strings = %v", got)
	}
	if got := runAgg(AggCall{Func: AggMax, Arg: arg}, input); got.Str() != "cherry" {
		t.Errorf("MAX strings = %v", got)
	}
}

// TestDistinctFloatSumIsDeterministic: an aggregate over DISTINCT values
// is the plain aggregate fed the distinct values in arrival order, so it
// equals that to the bit and accumulators fed the same values in the same
// order agree (SUM/AVG summed in map order, 50 accumulators gave 19
// different results).
func TestDistinctFloatSumIsDeterministic(t *testing.T) {
	arg := NewColRef(0, types.KindFloat, "")
	spread := make([]types.Row, 1000)
	for i := range spread {
		spread[i] = types.Row{types.NewFloat(float64(i)*1.1 + 1e-7*float64(i*i))}
	}
	for _, input := range [][]types.Row{spread, aggOrderedFloats, aggZeros, aggNaNs, aggAllNull} {
		var distinct []types.Row
	next:
		for _, r := range input {
			if r[0].IsNull() {
				continue
			}
			for _, d := range distinct {
				if types.Equal(d[0], r[0]) && d[0].Hash() == r[0].Hash() {
					continue next
				}
			}
			distinct = append(distinct, r)
		}
		for _, f := range []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax} {
			call := AggCall{Func: f, Arg: arg, Distinct: true}
			want := runAgg(AggCall{Func: f, Arg: arg}, distinct)
			for n := 0; n < 50; n++ {
				acc := call.NewAccumulator()
				feed(acc, call, input)
				if got := acc.Result(); !sameValue(got, want) {
					t.Fatalf("%s over %d rows: accumulator %d = %v (%x), want the plain %s of the distinct values, %v (%x)",
						call, len(input), n, got, math.Float64bits(got.F), f, want, math.Float64bits(want.F))
				}
				if again := acc.Result(); !sameValue(again, want) {
					t.Fatalf("%s over %d rows: a second Result = %v, want %v", call, len(input), again, want)
				}
			}
		}
	}
}

// TestNewAccumulatorsAllocateOnce: an accumulator is one object, a
// DISTINCT one included (it used to build the plain accumulator too and
// throw it away), and NewAccumulators backs any number of them with one.
func TestNewAccumulatorsAllocateOnce(t *testing.T) {
	arg := NewColRef(0, types.KindInt, "")
	dst := make([]Accumulator, 64)
	for _, call := range []AggCall{
		{Func: AggCount},
		{Func: AggSum, Arg: arg},
		{Func: AggAvg, Arg: arg},
		{Func: AggMin, Arg: arg},
		{Func: AggCount, Arg: arg, Distinct: true},
		{Func: AggSum, Arg: arg, Distinct: true},
	} {
		var acc Accumulator
		if n := testing.AllocsPerRun(100, func() { acc = call.NewAccumulator() }); n != 1 {
			t.Errorf("%s: NewAccumulator made %.0f objects, want 1", call, n)
		}
		if n := testing.AllocsPerRun(100, func() { call.NewAccumulators(dst) }); n != 1 {
			t.Errorf("%s: NewAccumulators of %d made %.0f objects, want 1", call, len(dst), n)
		}
		acc.Add(types.NewInt(2))
		dst[0].Add(types.NewInt(3))
		dst[1].Add(types.NewInt(5))
		if got, want := acc.Result(), runAgg(call, rows(2)); !valEq(got, want) {
			t.Errorf("%s: fresh accumulator fed 2 = %v, want %v", call, got, want)
		}
		if got, want := dst[1].Result(), runAgg(call, rows(5)); !valEq(got, want) {
			t.Errorf("%s: accumulators share state: second of a batch = %v, want %v", call, got, want)
		}
	}
}

func TestAggCallKinds(t *testing.T) {
	intArg := NewColRef(0, types.KindInt, "")
	floatArg := NewColRef(0, types.KindFloat, "")
	if k := (AggCall{Func: AggCount, Arg: intArg}).Kind(); k != types.KindInt {
		t.Errorf("COUNT kind = %s", k)
	}
	if k := (AggCall{Func: AggSum, Arg: intArg}).Kind(); k != types.KindInt {
		t.Errorf("SUM(int) kind = %s", k)
	}
	if k := (AggCall{Func: AggSum, Arg: floatArg}).Kind(); k != types.KindFloat {
		t.Errorf("SUM(float) kind = %s", k)
	}
	if k := (AggCall{Func: AggAvg, Arg: intArg}).Kind(); k != types.KindFloat {
		t.Errorf("AVG kind = %s", k)
	}
	if k := (AggCall{Func: AggMax, Arg: floatArg}).Kind(); k != types.KindFloat {
		t.Errorf("MAX kind = %s", k)
	}
}

func TestDescribeAggs(t *testing.T) {
	arg := NewColRef(0, types.KindInt, "qty")
	got := DescribeAggs([]AggCall{
		{Func: AggSum, Arg: arg},
		{Func: AggCount},
		{Func: AggCount, Arg: arg, Distinct: true},
	})
	want := "SUM($0:qty), COUNT(*), COUNT(DISTINCT $0:qty)"
	if got != want {
		t.Errorf("DescribeAggs = %q, want %q", got, want)
	}
}
