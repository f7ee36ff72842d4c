package expr

import (
	"fmt"

	"gignite/internal/types"
)

// Param is a prepared-statement placeholder (`?` in SQL text), identified
// by its zero-based ordinal in the statement. Its kind is a bind-time hint
// derived from the surrounding expression (the sibling operand of a
// comparison, the tested expression of an IN list, ...); KindNull means no
// hint was derivable and the argument's own kind is used at execution.
//
// A Param never evaluates: an execution binds its arguments into a copy
// of the kernel table of each fragment holding one, recompiling only the
// expressions that hold a placeholder with the argument in the Param's
// place (physical.Bind), so reaching Eval means a kernel compiled with its
// placeholders ran unbound.
type Param struct {
	Ordinal int
	Typ     types.Kind
}

// NewParam constructs a placeholder with a kind hint (types.KindNull when
// no hint is available).
func NewParam(ordinal int, typ types.Kind) *Param {
	return &Param{Ordinal: ordinal, Typ: typ}
}

func (p *Param) Kind() types.Kind { return p.Typ }

func (p *Param) Eval(types.Row) types.Value {
	panic(fmt.Sprintf("expr: unbound parameter $%d evaluated; plans with parameters must be bound before execution", p.Ordinal+1))
}

func (p *Param) String() string   { return fmt.Sprintf("?%d", p.Ordinal+1) }
func (p *Param) Children() []Expr { return nil }

func (p *Param) WithChildren(children []Expr) Expr {
	mustArity("Param", children, 0)
	return p
}

// HasParam reports whether e (nil allowed) holds a placeholder.
func HasParam(e Expr) bool {
	if _, ok := e.(*Param); ok {
		return true
	}
	if e == nil {
		return false
	}
	for _, ch := range e.Children() {
		if HasParam(ch) {
			return true
		}
	}
	return false
}
