package expr

import (
	"fmt"
	"strings"

	"gignite/internal/types"
)

// AggFunc enumerates the aggregate functions supported by the engine.
type AggFunc uint8

const (
	// AggCount is COUNT(expr) (non-NULL count) or COUNT(*) when Arg is nil.
	AggCount AggFunc = iota
	// AggSum is SUM(expr).
	AggSum
	// AggAvg is AVG(expr).
	AggAvg
	// AggMin is MIN(expr).
	AggMin
	// AggMax is MAX(expr).
	AggMax
)

var aggNames = [...]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string { return aggNames[f] }

// AggCall is one aggregate invocation within an Aggregate operator.
type AggCall struct {
	Func     AggFunc
	Arg      Expr // nil for COUNT(*)
	Distinct bool
	// Name labels the output column.
	Name string
}

// Kind returns the result kind of the aggregate call.
func (a AggCall) Kind() types.Kind {
	switch a.Func {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if a.Arg != nil && a.Arg.Kind() == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	default: // MIN/MAX follow their argument
		if a.Arg == nil {
			return types.KindNull
		}
		return a.Arg.Kind()
	}
}

// String renders the call for plan digests.
func (a AggCall) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Func, d, arg)
}

// Accumulator is the running state of one aggregate over one group. It is
// created by NewAccumulator, or by NewAccumulators for many groups at
// once, and fed one argument value per row by Add — the caller evaluates
// the argument; COUNT(*) counts every Add, whatever the value — and Result
// finalizes.
type Accumulator interface {
	Add(v types.Value)
	Result() types.Value
}

// NewAccumulator builds a fresh accumulator for the call.
func (a AggCall) NewAccumulator() Accumulator {
	var one [1]Accumulator
	a.NewAccumulators(one[:])
	return one[0]
}

// NewAccumulators fills dst with fresh accumulators for the call, all
// backed by one allocation.
func (a AggCall) NewAccumulators(dst []Accumulator) {
	if len(dst) == 0 {
		return
	}
	switch a.Func {
	case AggCount:
		fill(dst, a.Distinct, countAcc{star: a.Arg == nil})
	case AggSum:
		fill(dst, a.Distinct, sumAcc{kind: a.Kind()})
	case AggAvg:
		fill(dst, a.Distinct, avgAcc{})
	case AggMin:
		fill(dst, a.Distinct, minMaxAcc{isMin: true})
	case AggMax:
		fill(dst, a.Distinct, minMaxAcc{})
	default:
		panic(fmt.Sprintf("expr: unknown aggregate %d", a.Func))
	}
}

// fill points every element of dst at its own copy of proto, or of a
// DISTINCT accumulator feeding one, the copies living side by side in one
// backing array.
func fill[T any, P interface {
	*T
	Accumulator
}](dst []Accumulator, distinct bool, proto T) {
	if distinct {
		backing := make([]struct {
			distinctAcc
			acc T
		}, len(dst))
		for i := range backing {
			b := &backing[i]
			b.acc = proto
			b.plain = P(&b.acc)
			dst[i] = &b.distinctAcc
		}
		return
	}
	backing := make([]T, len(dst))
	for i := range backing {
		backing[i] = proto
		dst[i] = P(&backing[i])
	}
}

type countAcc struct {
	star bool // COUNT(*)
	n    int64
}

func (c *countAcc) Add(v types.Value) {
	if !c.star && v.IsNull() {
		return
	}
	c.n++
}

func (c *countAcc) Result() types.Value { return types.NewInt(c.n) }

type sumAcc struct {
	kind    types.Kind
	sumI    int64
	sumF    float64
	nonNull bool
}

func (s *sumAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	s.nonNull = true
	if s.kind == types.KindInt {
		s.sumI += v.Int()
	} else {
		s.sumF += v.Float()
	}
}

func (s *sumAcc) Result() types.Value {
	if !s.nonNull {
		return types.Null
	}
	if s.kind == types.KindInt {
		return types.NewInt(s.sumI)
	}
	return types.NewFloat(s.sumF)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	a.sum += v.Float()
	a.n++
}

func (a *avgAcc) Result() types.Value {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.sum / float64(a.n))
}

type minMaxAcc struct {
	isMin bool
	best  types.Value
	set   bool
}

func (m *minMaxAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	if !m.set {
		m.best, m.set = v, true
		return
	}
	c := types.Compare(v, m.best)
	if (m.isMin && c < 0) || (!m.isMin && c > 0) {
		m.best = v
	}
}

func (m *minMaxAcc) Result() types.Value {
	if !m.set {
		return types.Null
	}
	return m.best
}

// distinctAcc collects the distinct non-NULL argument values in order of
// first arrival (index, made by the first Add, maps a value's hash to its
// positions in vals) and feeds them, in that order, to plain, the
// accumulator of the same call without DISTINCT: Result feeds the values
// that arrived since the last Result (fed counts those already fed). The
// order is what makes a float SUM or AVG deterministic: the values are
// added up in arrival order, which the executor keeps fixed, not in map
// order.
type distinctAcc struct {
	plain Accumulator
	fed   int
	vals  []types.Value
	index map[uint64][]int
}

func (d *distinctAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	if d.index == nil {
		d.index = make(map[uint64][]int)
	}
	h := v.Hash()
	for _, i := range d.index[h] {
		if types.Equal(d.vals[i], v) {
			return
		}
	}
	d.index[h] = append(d.index[h], len(d.vals))
	d.vals = append(d.vals, v)
}

func (d *distinctAcc) Result() types.Value {
	for _, v := range d.vals[d.fed:] {
		d.plain.Add(v)
	}
	d.fed = len(d.vals)
	return d.plain.Result()
}

// describeAggs renders a list of calls (helper shared by plan nodes).
func DescribeAggs(calls []AggCall) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}
