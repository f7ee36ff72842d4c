// Package binder converts parsed SQL ASTs into logical plans: it resolves
// names against the catalog, types expressions, plans aggregation, and
// decorrelates subqueries into joins (EXISTS → semi join, NOT EXISTS /
// NOT IN → anti join, scalar aggregate subqueries → grouped join). It is
// the gignite analogue of the Calcite validator + sql-to-rel converter.
package binder

import (
	"errors"
	"fmt"
	"strings"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/sql"
	"gignite/internal/types"
)

// ErrViewsUnsupported reproduces the Ignite+Calcite limitation that makes
// TPC-H Q15 fail in the paper: SQL views are not supported.
var ErrViewsUnsupported = errors.New("binder: SQL views are not supported")

// Binder converts ASTs to logical plans.
type Binder struct {
	cat   *catalog.Catalog
	views map[string]*sql.SelectStmt
	// paramKinds records the bind-time kind hint of every `?` placeholder
	// seen (ordinal → kind). KindNull means no hint was derivable.
	paramKinds map[int]types.Kind
}

// New returns a binder over the given catalog.
func New(cat *catalog.Catalog) *Binder { return &Binder{cat: cat} }

// noteParam records (or upgrades) the kind hint for one placeholder.
func (b *Binder) noteParam(ordinal int, kind types.Kind) {
	if b.paramKinds == nil {
		b.paramKinds = make(map[int]types.Kind)
	}
	if existing, ok := b.paramKinds[ordinal]; !ok || existing == types.KindNull {
		b.paramKinds[ordinal] = kind
	}
}

// ParamKinds returns the bind-time kind hints for a statement with n
// placeholders; entries without a derivable hint are types.KindNull. Call
// it after BindSelect.
func (b *Binder) ParamKinds(n int) []types.Kind {
	out := make([]types.Kind, n)
	for i := range out {
		out[i] = types.KindNull
	}
	for ord, k := range b.paramKinds {
		if ord >= 0 && ord < n {
			out[ord] = k
		}
	}
	return out
}

// CoerceParam coerces one execution argument to a bound placeholder's
// hinted kind (date strings parse to dates, ints widen to floats, ...).
// A KindNull hint passes the value through unchanged.
func CoerceParam(v types.Value, hint types.Kind) (types.Value, error) {
	if hint == types.KindNull {
		return v, nil
	}
	return coerce(v, hint)
}

// WithViews enables view expansion (the engine's experimental extension;
// stock Ignite+Calcite — and therefore the default configuration — does
// not support views, which is what excludes TPC-H Q15 in the paper).
// Views are expanded by name during FROM binding, like derived tables.
func (b *Binder) WithViews(views map[string]*sql.SelectStmt) *Binder {
	b.views = views
	return b
}

// BindSelect binds a top-level SELECT statement.
func (b *Binder) BindSelect(sel *sql.SelectStmt) (logical.Node, error) {
	plan, _, err := b.bindQuery(sel, nil)
	return plan, err
}

// ---------------------------------------------------------------------------
// Query binding

// bindQuery binds a SELECT, optionally within an outer scope (only used to
// report unresolved names for correlation detection; correlated binding
// itself goes through bindCorrelated).
func (b *Binder) bindQuery(sel *sql.SelectStmt, outer *scope) (logical.Node, *scope, error) {
	plan, sc, err := b.bindFrom(sel.From)
	if err != nil {
		return nil, nil, err
	}
	plan, sc, err = b.bindWhere(plan, sc, sel.Where)
	if err != nil {
		return nil, nil, err
	}

	needsAgg := len(sel.GroupBy) > 0 || containsAggregate(sel)
	var itemExprs []expr.Expr
	var itemNames []string

	if needsAgg {
		plan, itemExprs, itemNames, err = b.bindAggregation(plan, sc, sel)
		if err != nil {
			return nil, nil, err
		}
	} else {
		itemExprs, itemNames, err = b.bindSelectItems(sel.Items, sc)
		if err != nil {
			return nil, nil, err
		}
	}
	visible := len(itemExprs)

	// ORDER BY may reference columns absent from the select list (for
	// non-aggregate, non-DISTINCT queries): such expressions ride along as
	// hidden projection columns and are trimmed after the sort.
	var keys []types.SortKey
	if len(sel.OrderBy) > 0 {
		var hiddenExprs []expr.Expr
		var hiddenNames []string
		var hiddenScope *scope
		if !needsAgg && !sel.Distinct {
			hiddenScope = sc
		}
		keys, hiddenExprs, hiddenNames, err = b.bindOrderBy(sel, itemExprs, itemNames, hiddenScope)
		if err != nil {
			return nil, nil, err
		}
		itemExprs = append(itemExprs, hiddenExprs...)
		itemNames = append(itemNames, hiddenNames...)
	}

	proj := logical.NewProject(plan, itemExprs, itemNames)
	var out logical.Node = proj

	if sel.Distinct {
		out = logical.NewAggregate(out, seq(len(proj.Schema())), nil)
	}

	if len(keys) > 0 {
		out = logical.NewSort(out, keys)
	}
	if sel.Limit >= 0 {
		out = logical.NewLimit(out, sel.Limit)
	}
	if len(itemExprs) > visible {
		out = logical.IdentityProject(out, seq(visible))
	}
	return out, newScope(out.Schema()), nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// bindFrom builds the plan for the FROM clause, cross-joining
// comma-separated items.
func (b *Binder) bindFrom(items []sql.TableRef) (logical.Node, *scope, error) {
	if len(items) == 0 {
		// SELECT without FROM: a single empty row.
		v := logical.NewValues(nil, []types.Row{{}})
		return v, newScope(nil), nil
	}
	var plan logical.Node
	for _, item := range items {
		p, err := b.bindTableRef(item)
		if err != nil {
			return nil, nil, err
		}
		if plan == nil {
			plan = p
		} else {
			plan = logical.NewJoin(plan, p, logical.JoinInner, expr.True)
		}
	}
	return plan, newScope(plan.Schema()), nil
}

func (b *Binder) bindTableRef(ref sql.TableRef) (logical.Node, error) {
	switch r := ref.(type) {
	case *sql.TableName:
		t, err := b.cat.Table(r.Name)
		if err != nil {
			if view, ok := b.views[strings.ToLower(r.Name)]; ok {
				alias := r.Alias
				if alias == "" {
					alias = r.Name
				}
				return b.bindTableRef(&sql.SubqueryRef{Select: view, Alias: alias})
			}
			return nil, err
		}
		return logical.NewScan(t, r.Alias), nil
	case *sql.SubqueryRef:
		plan, _, err := b.bindQuery(r.Select, nil)
		if err != nil {
			return nil, err
		}
		if r.Alias == "" {
			return plan, nil
		}
		// Re-qualify output names with the derived-table alias.
		in := plan.Schema()
		exprs := make([]expr.Expr, len(in))
		names := make([]string, len(in))
		for i, f := range in {
			_, col := splitQualified(f.Name)
			exprs[i] = expr.NewColRef(i, f.Kind, f.Name)
			names[i] = strings.ToLower(r.Alias) + "." + col
		}
		return logical.NewProject(plan, exprs, names), nil
	case *sql.JoinRef:
		left, err := b.bindTableRef(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.bindTableRef(r.Right)
		if err != nil {
			return nil, err
		}
		combined := newScope(left.Schema().Concat(right.Schema()))
		eb := &exprBinder{b: b, inner: combined}
		cond, err := eb.bind(r.On)
		if err != nil {
			return nil, err
		}
		jt := logical.JoinInner
		if r.Type == sql.JoinLeft {
			jt = logical.JoinLeft
		}
		return logical.NewJoin(left, right, jt, cond), nil
	default:
		return nil, fmt.Errorf("binder: unsupported FROM item %T", ref)
	}
}

// ---------------------------------------------------------------------------
// WHERE (subquery-aware)

// bindWhere processes WHERE in two passes, mirroring Calcite's
// sql-to-rel conversion: subquery conjuncts first transform the plan
// (decorrelation joins append columns on the right, so existing indices
// never move), then every plain conjunct lands in a single Filter above
// the whole tree. Pushing those filters down is the rule engine's job —
// including FILTER_CORRELATE, whose absence in the IC baseline leaves
// them near the root (§4.1).
func (b *Binder) bindWhere(plan logical.Node, sc *scope, where sql.Node) (logical.Node, *scope, error) {
	if where == nil {
		return plan, sc, nil
	}
	visible := sc.visible
	conjuncts := splitASTConjuncts(where)
	var plainConds []expr.Expr
	for _, conj := range conjuncts {
		if isSubqueryConjunct(conj) {
			var err error
			plan, err = b.bindConjunct(plan, sc, conj)
			if err != nil {
				return nil, nil, err
			}
			sc = newScope(plan.Schema())
			sc.visible = visible
			continue
		}
		// Plain predicates bind against the pre-subquery columns, which
		// keep their ordinals in the widened plan.
		eb := &exprBinder{b: b, inner: sc}
		cond, err := eb.bind(conj)
		if err != nil {
			return nil, nil, err
		}
		if cond.Kind() != types.KindBool && cond.Kind() != types.KindNull {
			return nil, nil, fmt.Errorf("binder: WHERE condition has type %s, not BOOLEAN", cond.Kind())
		}
		plainConds = append(plainConds, cond)
	}
	if len(plainConds) > 0 {
		plan = logical.NewFilter(plan, expr.Conjunction(plainConds))
		sc = newScope(plan.Schema())
		sc.visible = visible
	}
	return plan, sc, nil
}

// bindConjunct expands one subquery conjunct (isSubqueryConjunct holds
// for it) into joins over plan: [NOT] EXISTS, [NOT] IN (SELECT …) or a
// scalar-subquery comparison.
func (b *Binder) bindConjunct(plan logical.Node, sc *scope, conj sql.Node) (logical.Node, error) {
	if ex, negate, ok := asExists(conj); ok {
		return b.bindExists(plan, sc, ex, negate)
	}
	if in, ok := conj.(*sql.InExpr); ok && in.Select != nil {
		return b.bindInSubquery(plan, sc, in)
	}
	cmp, _ := asScalarCompare(conj)
	eb := &exprBinder{b: b, inner: sc}
	lhs, err := eb.bind(cmp.lhs)
	if err != nil {
		return nil, err
	}
	return b.bindScalarCompare(plan, sc, lhs, cmp)
}

func asExists(n sql.Node) (*sql.ExistsExpr, bool, bool) {
	if u, ok := n.(*sql.UnaryExpr); ok && strings.EqualFold(u.Op, "NOT") {
		if ex, ok := u.E.(*sql.ExistsExpr); ok {
			return ex, !ex.Negate, true
		}
		return nil, false, false
	}
	if ex, ok := n.(*sql.ExistsExpr); ok {
		return ex, ex.Negate, true
	}
	return nil, false, false
}

func isComparisonOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	default:
		return false
	}
}

func splitASTConjuncts(n sql.Node) []sql.Node {
	if b, ok := n.(*sql.BinaryExpr); ok && strings.EqualFold(b.Op, "AND") {
		return append(splitASTConjuncts(b.L), splitASTConjuncts(b.R)...)
	}
	return []sql.Node{n}
}

// ---------------------------------------------------------------------------
// SELECT items

func (b *Binder) bindSelectItems(items []sql.SelectItem, sc *scope) ([]expr.Expr, []string, error) {
	var exprs []expr.Expr
	var names []string
	for _, item := range items {
		if item.Star {
			for i := 0; i < sc.visible; i++ {
				f := sc.fields[i]
				exprs = append(exprs, expr.NewColRef(i, f.Kind, f.Name))
				names = append(names, f.Name)
			}
			continue
		}
		eb := &exprBinder{b: b, inner: sc}
		e, err := eb.bind(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(item))
	}
	return exprs, names, nil
}

// itemName picks the output column name for a select item.
func itemName(item sql.SelectItem) string {
	if item.Alias != "" {
		return strings.ToLower(item.Alias)
	}
	if id, ok := item.Expr.(*sql.Ident); ok {
		return strings.ToLower(id.Name)
	}
	return ""
}

// ---------------------------------------------------------------------------
// ORDER BY

// bindOrderBy resolves ORDER BY items against the projection: by ordinal,
// by alias/column name, by structural match against a select item, or —
// when hiddenScope is non-nil — as a hidden ride-along column bound over
// the pre-projection scope.
func (b *Binder) bindOrderBy(sel *sql.SelectStmt, itemExprs []expr.Expr,
	itemNames []string, hiddenScope *scope) (
	[]types.SortKey, []expr.Expr, []string, error) {

	keys := make([]types.SortKey, 0, len(sel.OrderBy))
	var hiddenExprs []expr.Expr
	var hiddenNames []string
	for _, ob := range sel.OrderBy {
		col := -1
		switch e := ob.Expr.(type) {
		case *sql.NumberLit:
			// Ordinal reference: ORDER BY 1.
			if !e.IsInt {
				return nil, nil, nil, fmt.Errorf("binder: non-integer ORDER BY ordinal %q", e.Text)
			}
			var n int
			if _, err := fmt.Sscanf(e.Text, "%d", &n); err != nil || n < 1 || n > len(itemExprs) {
				return nil, nil, nil, fmt.Errorf("binder: ORDER BY ordinal %s out of range", e.Text)
			}
			col = n - 1
		case *sql.Ident:
			// Alias or column-name match against the output names.
			name := strings.ToLower(e.Name)
			full := strings.ToLower(e.String())
			for i, fn := range itemNames {
				_, suffix := splitQualified(fn)
				if fn == full || fn == name || suffix == name {
					col = i
					break
				}
			}
		}
		if col < 0 && hiddenScope != nil {
			eb := &exprBinder{b: b, inner: hiddenScope}
			bound, err := eb.bind(ob.Expr)
			if err != nil {
				return nil, nil, nil, err
			}
			// Structural match against a select item first.
			for i, ie := range itemExprs {
				if expr.Equal(bound, ie) {
					col = i
					break
				}
			}
			if col < 0 {
				col = len(itemExprs) + len(hiddenExprs)
				hiddenExprs = append(hiddenExprs, bound)
				hiddenNames = append(hiddenNames, fmt.Sprintf("__order%d", len(hiddenExprs)))
			}
		}
		if col < 0 {
			return nil, nil, nil, fmt.Errorf("binder: ORDER BY expression must be a select item alias, column or ordinal")
		}
		keys = append(keys, types.SortKey{Col: col, Desc: ob.Desc, NullsLast: false})
	}
	return keys, hiddenExprs, hiddenNames, nil
}

// ---------------------------------------------------------------------------
// DDL/DML helpers for the engine layer

// KindOfTypeName maps a SQL type name to a value kind.
func KindOfTypeName(name string) (types.Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return types.KindInt, nil
	case "DECIMAL", "NUMERIC", "DOUBLE", "FLOAT", "REAL":
		return types.KindFloat, nil
	case "CHAR", "VARCHAR", "TEXT", "STRING":
		return types.KindString, nil
	case "DATE":
		return types.KindDate, nil
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	default:
		return types.KindNull, fmt.Errorf("binder: unsupported SQL type %s", name)
	}
}

// BindCreateTable converts a CREATE TABLE statement into a catalog table.
func BindCreateTable(stmt *sql.CreateTableStmt) (*catalog.Table, error) {
	t := &catalog.Table{
		Name:        strings.ToLower(stmt.Name),
		PrimaryKey:  lowerAll(stmt.PrimaryKey),
		Replicated:  stmt.Replicated,
		AffinityKey: strings.ToLower(stmt.AffinityKey),
	}
	for _, c := range stmt.Columns {
		k, err := KindOfTypeName(c.Type)
		if err != nil {
			return nil, err
		}
		t.Columns = append(t.Columns, catalog.Column{Name: strings.ToLower(c.Name), Kind: k})
	}
	return t, nil
}

func lowerAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToLower(s)
	}
	return out
}

// BindInsertRows evaluates INSERT literal rows against the table schema,
// coercing kinds where safe.
func BindInsertRows(t *catalog.Table, stmt *sql.InsertStmt) ([]types.Row, error) {
	cols := stmt.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
	}
	ordinals := make([]int, len(cols))
	for i, c := range cols {
		ord := t.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("binder: column %s does not exist in %s", c, t.Name)
		}
		ordinals[i] = ord
	}
	out := make([]types.Row, 0, len(stmt.Rows))
	eb := &exprBinder{inner: newScope(nil)}
	for _, astRow := range stmt.Rows {
		if len(astRow) != len(cols) {
			return nil, fmt.Errorf("binder: INSERT row has %d values, want %d", len(astRow), len(cols))
		}
		row := make(types.Row, len(t.Columns))
		for i := range row {
			row[i] = types.Null
		}
		for i, node := range astRow {
			e, err := eb.bind(node)
			if err != nil {
				return nil, err
			}
			if !expr.IsConstant(e) {
				return nil, fmt.Errorf("binder: INSERT values must be constants")
			}
			v := e.Eval(nil)
			row[ordinals[i]], err = coerce(v, t.Columns[ordinals[i]].Kind)
			if err != nil {
				return nil, fmt.Errorf("binder: column %s: %w", cols[i], err)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func coerce(v types.Value, to types.Kind) (types.Value, error) {
	if v.IsNull() || v.K == to {
		return v, nil
	}
	switch {
	case to == types.KindFloat && v.K == types.KindInt:
		return types.NewFloat(float64(v.I)), nil
	case to == types.KindInt && v.K == types.KindFloat && v.F == float64(int64(v.F)):
		return types.NewInt(int64(v.F)), nil
	case to == types.KindDate && v.K == types.KindString:
		return types.ParseDate(v.S)
	default:
		return types.Null, fmt.Errorf("cannot store %s as %s", v.K, to)
	}
}
