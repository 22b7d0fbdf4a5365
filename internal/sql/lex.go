// Package sql implements the SQL subset the paper's workloads need: SELECT
// with joins (inner, left/full outer), WHERE, GROUP BY / HAVING, ORDER BY,
// LIMIT, DISTINCT, scalar and aggregate functions, IN / NOT IN / EXISTS /
// NOT EXISTS subqueries, and set operations — plus a recursive-descent
// parser and an executor over the engine. The WITH+ extension of Section 6
// is layered on top in package withplus.
package sql

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// The token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // punctuation and operators
)

// Token is one lexeme with its source position.
type Token struct {
	Kind TokKind
	Text string // keywords are lower-cased
	Pos  int
}

var keywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"group": true, "by": true, "having": true, "order": true, "limit": true,
	"as": true, "and": true, "or": true, "not": true, "in": true,
	"exists": true, "is": true, "null": true, "union": true, "all": true,
	"update": true, "with": true, "recursive": true, "computed": true,
	"maxrecursion": true, "left": true, "right": true, "full": true,
	"outer": true, "inner": true, "join": true, "on": true, "asc": true,
	"desc": true, "except": true, "intersect": true, "true": true,
	"false": true, "between": true, "like": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "over": true,
	"partition": true, "insert": true, "into": true, "values": true,
	"create": true, "table": true, "temporary": true, "drop": true,
	"truncate": true,
}

// Lexer tokenizes an input string.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// ErrLex reports a lexical error with position.
type ErrLex struct {
	Pos int
	Msg string
}

func (e *ErrLex) Error() string { return fmt.Sprintf("sql: lex error at %d: %s", e.Pos, e.Msg) }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return Token{Kind: TokEOF, Pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isLetter(c) || c == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		lower := strings.ToLower(text)
		if keywords[lower] {
			return Token{Kind: TokKeyword, Text: lower, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case isDigit(c):
		sawDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !sawDot {
				sawDot = true
				l.pos++
				continue
			}
			if !isDigit(ch) && ch != 'e' && ch != 'E' {
				break
			}
			if ch == 'e' || ch == 'E' {
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		return Token{}, &ErrLex{Pos: start, Msg: "unterminated string"}
	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "<=", ">=", "!=":
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return Token{Kind: TokOp, Text: two, Pos: start}, nil
		}
		switch c {
		case '(', ')', ',', '.', ';', '*', '+', '-', '/', '%', '=', '<', '>',
			'[', ']', '{', '}', ':':
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, &ErrLex{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

// Identifier and digit classes are ASCII-only: the lexer walks bytes, and a
// byte >= 0x80 read as a Latin-1 letter yields an identifier that is not valid
// UTF-8 and does not survive render -> reparse. Outside a string literal such
// a byte is a lex error.
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentChar(c byte) bool { return c == '_' || isLetter(c) || isDigit(c) }

// Tokenize scans the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
