package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	// params counts `?` placeholders seen so far; each gets the next
	// zero-based ordinal in statement text order.
	params int
}

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	// Record the statement's placeholder count and plan-cache digest on
	// the outermost SELECT (prepared statements only support SELECT, so
	// other statement kinds surface their parameters as binder errors
	// instead).
	switch s := stmt.(type) {
	case *SelectStmt:
		s.Params, s.Digest = p.params, DigestTokens(toks)
	case *ExplainStmt:
		s.Query.Params, s.Query.Digest = p.params, DigestTokens(toks)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

// ---------------------------------------------------------------------------
// Token helpers

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

// isKeyword reports whether the next token is the given keyword
// (case-insensitive identifier match).
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.peek().Text)
	}
	return nil
}

func (p *Parser) isSymbol(sym string) bool {
	t := p.peek()
	return t.Kind == TokSymbol && t.Text == sym
}

func (p *Parser) acceptSymbol(sym string) bool {
	if p.isSymbol(sym) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().Text)
	}
	return nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.peek().Pos,
		fmt.Sprintf(format, args...))
}

// reservedKeywords may not be used as bare identifiers in expressions or
// aliases; this keeps the grammar unambiguous without a separate keyword
// token class.
var reservedKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "having": true,
	"order": true, "limit": true, "and": true, "or": true, "not": true,
	"in": true, "exists": true, "between": true, "like": true, "is": true,
	"null": true, "case": true, "when": true, "then": true, "else": true,
	"end": true, "join": true, "inner": true, "left": true, "right": true,
	"outer": true, "on": true, "as": true, "distinct": true, "by": true,
	"asc": true, "desc": true, "union": true, "all": true, "create": true,
	"insert": true, "values": true, "into": true, "view": true, "table": true,
	"index": true, "primary": true, "key": true, "explain": true,
}

func isReserved(word string) bool { return reservedKeywords[strings.ToLower(word)] }

// expectIdent consumes a non-reserved identifier.
func (p *Parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.Kind != TokIdent || isReserved(t.Text) {
		return "", p.errorf("expected %s, found %q", what, t.Text)
	}
	p.advance()
	return t.Text, nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		return p.parseSelect()
	case p.isKeyword("explain"):
		p.advance()
		analyze := p.acceptKeyword("analyze")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel, Analyze: analyze}, nil
	case p.isKeyword("create"):
		return p.parseCreate()
	case p.isKeyword("insert"):
		return p.parseInsert()
	default:
		return nil, p.errorf("expected a statement, found %q", p.peek().Text)
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("distinct")
	if sel.Distinct {
		// Tolerate SELECT DISTINCT ALL? No — but accept ALL alone below.
	} else {
		p.acceptKeyword("all")
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	// FROM.
	if p.acceptKeyword("from") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	// WHERE.
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	// GROUP BY.
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	// HAVING.
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	// ORDER BY.
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	// LIMIT.
	if p.acceptKeyword("limit") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected a number after LIMIT, found %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT value %q", t.Text)
		}
		p.advance()
		sel.Limit = n
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// Bare * star.
	if p.isSymbol("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// qualified star: ident.*
	if p.peek().Kind == TokIdent && !isReserved(p.peek().Text) &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSymbol && p.toks[p.pos+2].Text == "*" {
		p.pos += 3
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
		p.advance()
		item.Alias = t.Text
	}
	return item, nil
}

// parseTableRef parses one FROM item, folding trailing ANSI joins.
func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.isKeyword("join"):
			p.advance()
			jt = JoinInner
		case p.isKeyword("inner"):
			p.advance()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinInner
		case p.isKeyword("left"):
			p.advance()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right, Type: jt, On: on}
	}
}

func (p *Parser) parseTablePrimary() (TableRef, error) {
	if p.acceptSymbol("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel}
		p.acceptKeyword("as")
		if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
			p.advance()
			ref.Alias = t.Text
		}
		return ref, nil
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ref := &TableName{Name: name}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
		p.advance()
		ref.Alias = t.Text
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// DDL / DML

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	replicated := p.acceptKeyword("replicated")
	switch {
	case p.isKeyword("table"):
		p.advance()
		return p.parseCreateTable(replicated)
	case p.isKeyword("index"):
		if replicated {
			return nil, p.errorf("REPLICATED applies only to CREATE TABLE")
		}
		p.advance()
		return p.parseCreateIndex()
	case p.isKeyword("view"):
		if replicated {
			return nil, p.errorf("REPLICATED applies only to CREATE TABLE")
		}
		p.advance()
		return p.parseCreateView()
	default:
		return nil, p.errorf("expected TABLE, INDEX or VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable(replicated bool) (Statement, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name, Replicated: replicated}
	for {
		if p.acceptKeyword("primary") {
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent("primary key column")
				if err != nil {
					return nil, err
				}
				stmt.PrimaryKey = append(stmt.PrimaryKey, col)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			// Tolerate NOT NULL.
			if p.acceptKeyword("not") {
				if err := p.expectKeyword("null"); err != nil {
					return nil, err
				}
			}
			if p.acceptKeyword("primary") {
				if err := p.expectKeyword("key"); err != nil {
					return nil, err
				}
				stmt.PrimaryKey = append(stmt.PrimaryKey, col)
			}
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Type: typ})
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	// Optional AFFINITY KEY (col).
	if p.acceptKeyword("affinity") {
		if err := p.expectKeyword("key"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent("affinity column")
		if err != nil {
			return nil, err
		}
		stmt.AffinityKey = col
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// parseTypeName consumes a SQL type, including parenthesized precision.
func (p *Parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected a type name, found %q", t.Text)
	}
	p.advance()
	name := strings.ToUpper(t.Text)
	// Two-word types like DOUBLE PRECISION.
	if name == "DOUBLE" && p.isKeyword("precision") {
		p.advance()
	}
	// Precision/scale.
	if p.acceptSymbol("(") {
		for !p.isSymbol(")") && !p.atEOF() {
			p.advance()
		}
		if err := p.expectSymbol(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	name, err := p.expectIdent("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateIndexStmt{Name: name, Table: table}
	for {
		col, err := p.expectIdent("index column")
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		// Tolerate ASC/DESC.
		p.acceptKeyword("asc")
		p.acceptKeyword("desc")
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.expectIdent("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, Select: sel}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Node
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses an expression at the lowest precedence (OR).
func (p *Parser) parseExpr() (Node, error) { return p.parseOr() }

func (p *Parser) parseOr() (Node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Node, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Node, error) {
	if p.acceptKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses comparisons and the predicate suffixes IN, LIKE,
// BETWEEN, IS NULL.
func (p *Parser) parsePredicate() (Node, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if t := p.peek(); t.Kind == TokSymbol {
		switch t.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.Text, L: left, R: right}, nil
		}
	}
	// Predicate suffixes, possibly NOT-prefixed.
	negate := false
	if p.isKeyword("not") {
		// Lookahead: NOT must be followed by IN / LIKE / BETWEEN here.
		save := p.pos
		p.advance()
		if p.isKeyword("in") || p.isKeyword("like") || p.isKeyword("between") {
			negate = true
		} else {
			p.pos = save
			return left, nil
		}
	}
	switch {
	case p.acceptKeyword("in"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.isKeyword("select") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: left, Select: sel, Negate: negate}, nil
		}
		var list []Node
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("like"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: left, Pattern: pat, Negate: negate}, nil
	case p.acceptKeyword("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.isKeyword("is"):
		p.advance()
		neg := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Negate: neg}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Node, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (Node, error) {
	if p.isSymbol("-") {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.isSymbol("+") {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &NumberLit{Text: t.Text, IsInt: !strings.Contains(t.Text, ".")}, nil
	case TokString:
		p.advance()
		return &StringLit{Val: t.Text}, nil
	case TokSymbol:
		if t.Text == "?" {
			p.advance()
			e := &ParamExpr{Ordinal: p.params}
			p.params++
			return e, nil
		}
		if t.Text == "(" {
			p.advance()
			if p.isKeyword("select") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected symbol %q", t.Text)
	case TokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errorf("unexpected end of input")
	}
}

// parseIdentExpr handles keywords that begin expressions and plain
// identifiers / function calls.
func (p *Parser) parseIdentExpr() (Node, error) {
	t := p.peek()
	lower := strings.ToLower(t.Text)
	switch lower {
	case "null":
		p.advance()
		return &NullLit{}, nil
	case "true":
		p.advance()
		return &NumberLit{Text: "1", IsInt: true}, nil // boolean literals are rare; binder casts
	case "false":
		p.advance()
		return &NumberLit{Text: "0", IsInt: true}, nil
	case "date":
		// DATE 'yyyy-mm-dd'
		if p.toks[p.pos+1].Kind == TokString {
			p.advance()
			s := p.advance()
			return &DateLit{Val: s.Text}, nil
		}
	case "interval":
		// INTERVAL 'n' unit
		p.advance()
		v := p.peek()
		if v.Kind != TokString && v.Kind != TokNumber {
			return nil, p.errorf("expected a quoted interval value, found %q", v.Text)
		}
		p.advance()
		n, err := strconv.ParseInt(strings.TrimSpace(v.Text), 10, 64)
		if err != nil {
			return nil, p.errorf("bad interval value %q", v.Text)
		}
		unitTok := p.peek()
		if unitTok.Kind != TokIdent {
			return nil, p.errorf("expected an interval unit, found %q", unitTok.Text)
		}
		p.advance()
		return &IntervalLit{N: n, Unit: strings.ToLower(unitTok.Text)}, nil
	case "case":
		return p.parseCase()
	case "exists":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Select: sel}, nil
	case "cast":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("as"); err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CastExpr{E: e, Type: typ}, nil
	case "extract":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		field := p.peek()
		if field.Kind != TokIdent {
			return nil, p.errorf("expected YEAR or MONTH in EXTRACT")
		}
		p.advance()
		if err := p.expectKeyword("from"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExtractExpr{Field: strings.ToUpper(field.Text), E: e}, nil
	case "substring":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		s, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var from, forN Node
		if p.acceptKeyword("from") {
			from, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.acceptKeyword("for") {
				forN, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
		} else if p.acceptSymbol(",") {
			from, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.acceptSymbol(",") {
				forN, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if from == nil {
			return nil, p.errorf("SUBSTRING requires a FROM position")
		}
		if forN == nil {
			forN = &NumberLit{Text: "1000000000", IsInt: true}
		}
		return &SubstringExpr{S: s, From: from, For: forN}, nil
	}
	if isReserved(lower) {
		return nil, p.errorf("unexpected keyword %q", t.Text)
	}
	p.advance()
	// Function call?
	if p.isSymbol("(") {
		p.advance()
		call := &FuncCall{Name: strings.ToUpper(t.Text)}
		if p.isSymbol("*") {
			p.advance()
			call.Star = true
		} else if !p.isSymbol(")") {
			call.Distinct = p.acceptKeyword("distinct")
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	// Qualified identifier?
	if p.isSymbol(".") {
		p.advance()
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		return &Ident{Qualifier: t.Text, Name: col}, nil
	}
	return &Ident{Name: t.Text}, nil
}

func (p *Parser) parseCase() (Node, error) {
	if err := p.expectKeyword("case"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}
