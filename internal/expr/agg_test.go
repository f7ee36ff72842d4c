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

func TestAggregates(t *testing.T) {
	arg := NewColRef(0, types.KindInt, "")
	input := rows(3, 1, nil, 4, 1)
	cases := []struct {
		call AggCall
		want types.Value
	}{
		{AggCall{Func: AggCount, Arg: arg}, types.NewInt(4)},
		{AggCall{Func: AggCount}, types.NewInt(5)}, // COUNT(*)
		{AggCall{Func: AggSum, Arg: arg}, types.NewInt(9)},
		{AggCall{Func: AggAvg, Arg: arg}, types.NewFloat(2.25)},
		{AggCall{Func: AggMin, Arg: arg}, types.NewInt(1)},
		{AggCall{Func: AggMax, Arg: arg}, types.NewInt(4)},
		{AggCall{Func: AggCount, Arg: arg, Distinct: true}, types.NewInt(3)},
		{AggCall{Func: AggSum, Arg: arg, Distinct: true}, types.NewInt(8)},
	}
	for _, c := range cases {
		got := runAgg(c.call, input)
		if !valEq(got, c.want) {
			t.Errorf("%s = %v, want %v", c.call, got, c.want)
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

// TestDistinctFloatSumIsDeterministic: SUM/AVG(DISTINCT) over floats adds
// the distinct values up in arrival order, so accumulators fed the same
// values in the same order agree to the bit (summed in map order, 50
// accumulators gave 19 different results).
func TestDistinctFloatSumIsDeterministic(t *testing.T) {
	arg := NewColRef(0, types.KindFloat, "")
	input := make([]types.Row, 1000)
	for i := range input {
		input[i] = types.Row{types.NewFloat(float64(i)*1.1 + 1e-7*float64(i*i))}
	}
	for _, f := range []AggFunc{AggSum, AggAvg} {
		call := AggCall{Func: f, Arg: arg, Distinct: true}
		want := math.Float64bits(runAgg(call, input).F)
		for n := 0; n < 50; n++ {
			acc := call.NewAccumulator()
			feed(acc, call, input)
			if got := math.Float64bits(acc.Result().F); got != want {
				t.Fatalf("%s: accumulator %d = %x, want %x", call, n, got, want)
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
