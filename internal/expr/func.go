package expr

import (
	"fmt"
	"strings"

	"gignite/internal/types"
)

// FuncName enumerates the built-in scalar functions needed by the TPC-H and
// SSB workloads.
type FuncName string

const (
	// FuncExtractYear is EXTRACT(YEAR FROM d).
	FuncExtractYear FuncName = "EXTRACT_YEAR"
	// FuncExtractMonth is EXTRACT(MONTH FROM d).
	FuncExtractMonth FuncName = "EXTRACT_MONTH"
	// FuncSubstring is SUBSTRING(s FROM i FOR n) with 1-based i.
	FuncSubstring FuncName = "SUBSTRING"
	// FuncUpper is UPPER(s).
	FuncUpper FuncName = "UPPER"
	// FuncLower is LOWER(s).
	FuncLower FuncName = "LOWER"
	// FuncAbs is ABS(x).
	FuncAbs FuncName = "ABS"
	// FuncLength is CHAR_LENGTH(s).
	FuncLength FuncName = "CHAR_LENGTH"
)

// Func is a call to a built-in scalar function.
type Func struct {
	Name FuncName
	Args []Expr
}

// NewFunc constructs a function call. It validates arity eagerly so the
// binder surfaces errors at plan time, not run time.
func NewFunc(name FuncName, args []Expr) (*Func, error) {
	want := map[FuncName]int{
		FuncExtractYear:  1,
		FuncExtractMonth: 1,
		FuncSubstring:    3,
		FuncUpper:        1,
		FuncLower:        1,
		FuncAbs:          1,
		FuncLength:       1,
	}
	n, ok := want[name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %s", name)
	}
	if len(args) != n {
		return nil, fmt.Errorf("expr: %s expects %d arguments, got %d", name, n, len(args))
	}
	return &Func{Name: name, Args: args}, nil
}

// MustFunc is NewFunc for statically known-correct calls.
func MustFunc(name FuncName, args ...Expr) *Func {
	f, err := NewFunc(name, args)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Func) Kind() types.Kind {
	switch f.Name {
	case FuncExtractYear, FuncExtractMonth, FuncLength:
		return types.KindInt
	case FuncSubstring, FuncUpper, FuncLower:
		return types.KindString
	case FuncAbs:
		return f.Args[0].Kind()
	default:
		return types.KindNull
	}
}

// Eval evaluates the arguments into a stack array (every function takes
// at most three), so a call allocates only the new string UPPER and LOWER
// return.
func (f *Func) Eval(row types.Row) types.Value {
	var buf [3]types.Value
	args := buf[:len(f.Args)]
	for i, a := range f.Args {
		args[i] = a.Eval(row)
		if args[i].IsNull() {
			return types.Null
		}
	}
	switch f.Name {
	case FuncExtractYear:
		return types.NewInt(int64(args[0].Time().Year()))
	case FuncExtractMonth:
		return types.NewInt(int64(args[0].Time().Month()))
	case FuncSubstring:
		s := args[0].Str()
		start := int(args[1].Int()) - 1
		n := int(args[2].Int())
		if start < 0 {
			start = 0
		}
		if start >= len(s) || n <= 0 {
			return types.NewString("")
		}
		end := start + n
		if end > len(s) {
			end = len(s)
		}
		return types.NewString(s[start:end])
	case FuncUpper:
		return types.NewString(strings.ToUpper(args[0].Str()))
	case FuncLower:
		return types.NewString(strings.ToLower(args[0].Str()))
	case FuncAbs:
		switch args[0].K {
		case types.KindInt:
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return types.NewInt(v)
		default:
			v := args[0].Float()
			if v < 0 {
				v = -v
			}
			return types.NewFloat(v)
		}
	case FuncLength:
		return types.NewInt(int64(len(args[0].Str())))
	default:
		panic(fmt.Sprintf("expr: unimplemented function %s", f.Name))
	}
}

func (f *Func) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

func (f *Func) Children() []Expr { return f.Args }

func (f *Func) WithChildren(children []Expr) Expr {
	mustArity(string(f.Name), children, len(f.Args))
	args := make([]Expr, len(children))
	copy(args, children)
	return &Func{Name: f.Name, Args: args}
}

// AddInterval shifts a date value by n units (supported units: "day",
// "month", "year"). It is used by the binder to fold the benchmark's
// `date '...' ± interval 'n' unit` expressions into date literals.
func AddInterval(d types.Value, n int64, unit string) (types.Value, error) {
	if d.K != types.KindDate {
		return types.Null, fmt.Errorf("expr: interval arithmetic on %s", d.K)
	}
	t := d.Time()
	switch strings.ToLower(unit) {
	case "day":
		t = t.AddDate(0, 0, int(n))
	case "month":
		t = t.AddDate(0, int(n), 0)
	case "year":
		t = t.AddDate(int(n), 0, 0)
	default:
		return types.Null, fmt.Errorf("expr: unsupported interval unit %q", unit)
	}
	return types.NewDate(t.Unix() / 86400), nil
}
