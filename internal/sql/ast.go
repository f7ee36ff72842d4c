package sql

import (
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Node is any parsed scalar expression.
type Node interface{ node() }

// ---------------------------------------------------------------------------
// Statements

// SelectStmt is a SELECT query (possibly a subquery).
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Node
	GroupBy  []Node
	Having   Node
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	// Params counts the `?` placeholders lexed while parsing the whole
	// statement (subqueries included). Only set on the outermost SELECT of
	// a statement; nested SelectStmts leave it zero.
	Params int
	// Digest is DigestTokens of the statement this SELECT was parsed from
	// — its plan-cache key — so that looking a parsed statement up does
	// not lex its text again. Set with Params, on the outermost SELECT
	// only.
	Digest uint64
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection item. Star items select every input column.
type SelectItem struct {
	Expr  Node
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key. Expr may be an ordinal or alias reference;
// the binder resolves it.
type OrderItem struct {
	Expr Node
	Desc bool
}

// TableRef is an item in the FROM clause.
type TableRef interface{ tableRef() }

// TableName references a base table.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableRef() {}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

// JoinType enumerates ANSI join kinds.
type JoinType uint8

const (
	// JoinInner is INNER JOIN.
	JoinInner JoinType = iota
	// JoinLeft is LEFT [OUTER] JOIN.
	JoinLeft
)

// JoinRef is an ANSI join in the FROM clause.
type JoinRef struct {
	Left, Right TableRef
	Type        JoinType
	On          Node
}

func (*JoinRef) tableRef() {}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
	// Template options (Ignite-style WITH "template=..."): "partitioned"
	// (default) or "replicated", plus an optional affinity key column.
	Replicated  bool
	AffinityKey string
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // SQL type name as written; the binder maps it to a Kind
}

// CreateIndexStmt is CREATE INDEX.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

func (*CreateIndexStmt) stmt() {}

// CreateViewStmt is CREATE VIEW. gignite parses it so that it can report
// the paper-faithful "views are not supported" planning error (TPC-H Q15).
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

func (*CreateViewStmt) stmt() {}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string // optional explicit column list
	Rows    [][]Node
}

func (*InsertStmt) stmt() {}

// ExplainStmt wraps a query for EXPLAIN. Analyze marks EXPLAIN ANALYZE:
// the engine executes the query and annotates the plan with estimated
// vs. actual per-operator row counts.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// ---------------------------------------------------------------------------
// Expressions

// Ident is a possibly-qualified column reference.
type Ident struct {
	Qualifier string // table or alias; empty when unqualified
	Name      string
}

func (*Ident) node() {}

// String renders the identifier.
func (i *Ident) String() string {
	if i.Qualifier != "" {
		return i.Qualifier + "." + i.Name
	}
	return i.Name
}

// NumberLit is a numeric literal; IsInt distinguishes 42 from 42.0.
type NumberLit struct {
	Text  string
	IsInt bool
}

func (*NumberLit) node() {}

// StringLit is a string literal.
type StringLit struct {
	Val string
}

func (*StringLit) node() {}

// DateLit is DATE 'YYYY-MM-DD'.
type DateLit struct {
	Val string
}

func (*DateLit) node() {}

// IntervalLit is INTERVAL 'n' UNIT.
type IntervalLit struct {
	N    int64
	Unit string // day | month | year
}

func (*IntervalLit) node() {}

// BinaryExpr is a binary operation; Op is the SQL spelling (+, -, *, /, %,
// =, <>, <, <=, >, >=, AND, OR).
type BinaryExpr struct {
	Op   string
	L, R Node
}

func (*BinaryExpr) node() {}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // NOT | -
	E  Node
}

func (*UnaryExpr) node() {}

// FuncCall is a function or aggregate call. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Node
	Distinct bool
	Star     bool
}

func (*FuncCall) node() {}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Node
}

func (*CaseExpr) node() {}

// CaseWhen is one WHEN arm.
type CaseWhen struct {
	Cond, Result Node
}

// InExpr is expr [NOT] IN (list | subquery).
type InExpr struct {
	E      Node
	List   []Node
	Select *SelectStmt // non-nil for IN (SELECT ...)
	Negate bool
}

func (*InExpr) node() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Select *SelectStmt
	Negate bool
}

func (*ExistsExpr) node() {}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Select *SelectStmt
}

func (*SubqueryExpr) node() {}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Node
	Negate    bool
}

func (*BetweenExpr) node() {}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	E       Node
	Pattern Node
	Negate  bool
}

func (*LikeExpr) node() {}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E      Node
	Negate bool
}

func (*IsNullExpr) node() {}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	E    Node
	Type string
}

func (*CastExpr) node() {}

// ExtractExpr is EXTRACT(field FROM expr).
type ExtractExpr struct {
	Field string // YEAR | MONTH
	E     Node
}

func (*ExtractExpr) node() {}

// SubstringExpr is SUBSTRING(s FROM i FOR n).
type SubstringExpr struct {
	S, From, For Node
}

func (*SubstringExpr) node() {}

// NullLit is the NULL keyword.
type NullLit struct{}

func (*NullLit) node() {}

// ParamExpr is a `?` prepared-statement placeholder. Ordinal is the
// zero-based position of the placeholder in the statement text, assigned
// left to right by the parser (subqueries included).
type ParamExpr struct {
	Ordinal int
}

func (*ParamExpr) node() {}

// IsAggregateName reports whether a function name denotes an aggregate.
func IsAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}
