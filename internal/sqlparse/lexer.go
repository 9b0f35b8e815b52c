// Package sqlparse implements the SQL interface of the PRISMA DBMS
// (paper §2.1/§2.2: the Global Data Handler contains "the parsers for
// SQL and PRISMAlog"). The subset covers the experiments: CREATE TABLE
// with fragmentation clauses, INSERT, SELECT with joins / aggregation /
// grouping / ordering, UPDATE and DELETE, plus the session and
// administration statements (SET STATEMENT_TIMEOUT, PROMOTE, CREATE and
// DROP USER, GRANT, REVOKE, SHOW). The words only those statements use
// are matched as identifiers in context, not reserved, so a column may be
// called user, admin or priority.
package sqlparse

import (
	"fmt"
	"strings"
)

// tokKind classifies a lexer token.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokOp    // operators and punctuation
	tokParam // placeholder parameter: text "" for '?', digits for '$n'
)

type token struct {
	kind tokKind
	text string // canonical: keywords upper-cased, operators literal
	pos  int    // byte offset, for error messages
}

// keywords recognized by the lexer (canonical upper case).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "DROP": true,
	"PRIMARY": true, "KEY": true, "FRAGMENT": true, "HASH": true,
	"RANGE": true, "ROUND": true, "ROBIN": true, "FRAGMENTS": true,
	"AND": true, "OR": true, "NOT": true, "IS": true, "NULL": true,
	"TRUE": true, "FALSE": true, "LIKE": true, "IN": true, "AS": true,
	"JOIN": true, "ON": true, "DISTINCT": true, "UNION": true, "ALL": true,
	"INNER": true, "BEGIN": true, "COMMIT": true, "ABORT": true, "ROLLBACK": true,
	"EXPLAIN": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isDigit(c):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			l.lexIdent()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '?':
			l.toks = append(l.toks, token{kind: tokParam, pos: l.pos})
			l.pos++
		case c == '$':
			if err := l.lexDollarParam(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	kind := tokInt
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		kind = tokFloat
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
		return fmt.Errorf("sql: malformed number at offset %d", start)
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

// lexDollarParam lexes a '$n' placeholder (n = 1-based slot number).
func (l *lexer) lexDollarParam() error {
	start := l.pos
	l.pos++ // '$'
	digits := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == digits {
		return fmt.Errorf("sql: '$' must be followed by a parameter number at offset %d", start)
	}
	l.toks = append(l.toks, token{kind: tokParam, text: l.src[digits:l.pos], pos: start})
	return nil
}

func (l *lexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		text := two
		if text == "!=" {
			text = "<>"
		}
		l.toks = append(l.toks, token{kind: tokOp, text: text, pos: start})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.':
		l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: start})
		l.pos++
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}
