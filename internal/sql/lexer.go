// Package sql implements the SQL frontend: a lexer, an abstract syntax
// tree, and a recursive-descent parser covering the dialect exercised by
// the TPC-H and Star Schema benchmarks — SELECT with joins (comma and
// ANSI), scalar/IN/EXISTS subqueries, aggregates with DISTINCT, CASE,
// LIKE, BETWEEN, EXTRACT, date and interval literals — plus the DDL and
// DML statements the examples need (CREATE TABLE/INDEX/VIEW, INSERT).
//
// This is the gignite analogue of the Calcite SQL parser: it produces a
// tree the binder converts into relational algebra.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	// TokEOF ends the token stream.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or unreserved keyword.
	TokIdent
	// TokNumber is a numeric literal (integer or decimal).
	TokNumber
	// TokString is a single-quoted string literal.
	TokString
	// TokSymbol is an operator or punctuation: ( ) , . + - * / % = <> < <= > >= ; ?
	TokSymbol
)

// Token is one lexical token. Text preserves the original spelling except
// for strings, where it is the unquoted value.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

// lexer tokenizes a SQL string.
type lexer struct {
	src string
	pos int
}

// Lex tokenizes an entire statement. It returns an error for unterminated
// strings or unexpected bytes.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src}
	var out []Token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}

func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start}, nil
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return Token{Kind: TokSymbol, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '>', c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		text := l.src[start:l.pos]
		if text == "!" {
			return Token{}, fmt.Errorf("sql: unexpected '!' at offset %d", start)
		}
		if text == "!=" {
			text = "<>"
		}
		return Token{Kind: TokSymbol, Text: text, Pos: start}, nil
	case strings.IndexByte("(),.+-*/%=;?", c) >= 0:
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("sql: unexpected byte %q at offset %d", c, start)
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// DigestTokens hashes a statement's token stream (FNV-64a over each
// token's kind and text) into the key the plan cache files it under.
// Identifiers are lower-cased and leading EXPLAIN [ANALYZE] tokens
// skipped; everything else, literals included, is hashed verbatim (see
// plancache.Digest for what that normalization is for). It allocates
// nothing: Parse runs it on every statement.
func DigestTokens(toks []Token) uint64 {
	for len(toks) > 0 && toks[0].Kind == TokIdent &&
		(strings.EqualFold(toks[0].Text, "explain") || strings.EqualFold(toks[0].Text, "analyze")) {
		toks = toks[1:]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range toks {
		if t.Kind == TokEOF {
			break
		}
		h = (h ^ uint64(byte(t.Kind))) * prime64
		for i := 0; i < len(t.Text); i++ {
			c := t.Text[i]
			// Identifiers are ASCII (isIdentPart), so this is ToLower.
			if t.Kind == TokIdent && c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			h = (h ^ uint64(c)) * prime64
		}
		h *= prime64 // the separator byte 0: h ^ 0 is h
	}
	return h
}
