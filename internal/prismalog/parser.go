package prismalog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// Parse parses a PRISMAlog program: facts, rules and queries.
//
//	parent('ann', 'bob').
//	ancestor(X, Y) :- parent(X, Y).
//	ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//	?- ancestor('ann', X).
//
// Identifiers starting with an upper-case letter or '_' are variables,
// and each bare '_' is a fresh, anonymous one; lower-case identifiers are
// string constants (Prolog atoms); numbers and quoted strings are
// constants. '%' starts a line comment.
func Parse(src string) (*Program, error) {
	toks, err := plex(src)
	if err != nil {
		return nil, err
	}
	p := &plparser{toks: toks}
	prog := &Program{}
	for !p.at(ptEOF, "") {
		if p.accept(ptOp, "?-") {
			body, err := p.parseBody()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ptOp, "."); err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, Query{Body: body})
			continue
		}
		head, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		rule := Rule{Head: *head}
		if p.accept(ptOp, ":-") {
			body, err := p.parseBody()
			if err != nil {
				return nil, err
			}
			rule.Body = body
		}
		if _, err := p.expect(ptOp, "."); err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, rule)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseQuery parses a single query, with or without the "?-" prefix.
func ParseQuery(src string) (*Query, error) {
	s := strings.TrimSpace(src)
	if !strings.HasPrefix(s, "?-") {
		s = "?- " + s
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	prog, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) != 1 || len(prog.Rules) != 0 {
		return nil, fmt.Errorf("prismalog: expected exactly one query")
	}
	return &prog.Queries[0], nil
}

// ---------- lexer ----------

type ptKind uint8

const (
	ptEOF ptKind = iota
	ptLower
	ptUpper
	ptInt
	ptFloat
	ptString
	ptOp
)

type ptoken struct {
	kind ptKind
	text string
	pos  int
}

func plex(src string) ([]ptoken, error) {
	var toks []ptoken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9':
			start := i
			kind := ptInt
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			if i+1 < len(src) && src[i] == '.' && src[i+1] >= '0' && src[i+1] <= '9' {
				kind = ptFloat
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			toks = append(toks, ptoken{kind: kind, text: src[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("prismalog: unterminated string at offset %d", start)
			}
			toks = append(toks, ptoken{kind: ptString, text: sb.String(), pos: start})
		case isLetter(c) || c == '_':
			start := i
			for i < len(src) && (isLetter(src[i]) || src[i] == '_' || (src[i] >= '0' && src[i] <= '9')) {
				i++
			}
			word := src[start:i]
			if word[0] == '_' || (word[0] >= 'A' && word[0] <= 'Z') {
				toks = append(toks, ptoken{kind: ptUpper, text: word, pos: start})
			} else {
				toks = append(toks, ptoken{kind: ptLower, text: word, pos: start})
			}
		default:
			start := i
			for _, op := range []string{"?-", ":-", "<>", "!=", "<=", ">=", "=<"} {
				if strings.HasPrefix(src[i:], op) {
					text := op
					if text == "!=" {
						text = "<>"
					}
					if text == "=<" {
						text = "<="
					}
					toks = append(toks, ptoken{kind: ptOp, text: text, pos: start})
					i += len(op)
					goto next
				}
			}
			switch c {
			case '(', ')', ',', '.', '=', '<', '>':
				toks = append(toks, ptoken{kind: ptOp, text: string(c), pos: start})
				i++
			default:
				return nil, fmt.Errorf("prismalog: unexpected character %q at offset %d", c, i)
			}
		next:
		}
	}
	toks = append(toks, ptoken{kind: ptEOF, pos: i})
	return toks, nil
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// ---------- parser ----------

type plparser struct {
	toks []ptoken
	pos  int
	anon int // anonymous variables named so far
}

func (p *plparser) cur() ptoken  { return p.toks[p.pos] }
func (p *plparser) next() ptoken { t := p.toks[p.pos]; p.pos++; return t }

func (p *plparser) at(kind ptKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *plparser) accept(kind ptKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *plparser) expect(kind ptKind, text string) (ptoken, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return ptoken{}, fmt.Errorf("prismalog: offset %d: expected %q, found %q", p.cur().pos, text, p.cur().text)
}

func (p *plparser) parseBody() ([]Literal, error) {
	var body []Literal
	for {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		body = append(body, lit)
		if !p.accept(ptOp, ",") {
			break
		}
	}
	return body, nil
}

var plCmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

func (p *plparser) parseLiteral() (Literal, error) {
	// An atom starts with lower-ident followed by '('; otherwise it is a
	// comparison between terms.
	if p.cur().kind == ptLower && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == ptOp && p.toks[p.pos+1].text == "(" {
		a, err := p.parseAtom()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Atom: a}, nil
	}
	l, err := p.parseTerm()
	if err != nil {
		return Literal{}, err
	}
	opTok := p.cur()
	op, ok := plCmpOps[opTok.text]
	if opTok.kind != ptOp || !ok {
		return Literal{}, fmt.Errorf("prismalog: offset %d: expected a comparison operator, found %q", opTok.pos, opTok.text)
	}
	p.next()
	r, err := p.parseTerm()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Cmp: &CmpLit{Op: op, L: l, R: r}}, nil
}

func (p *plparser) parseAtom() (*Atom, error) {
	nameTok, err := p.expect(ptLower, "")
	if err != nil {
		return nil, fmt.Errorf("prismalog: offset %d: expected a predicate name, found %q", p.cur().pos, p.cur().text)
	}
	if _, err := p.expect(ptOp, "("); err != nil {
		return nil, err
	}
	a := &Atom{Pred: nameTok.text}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, t)
		if !p.accept(ptOp, ",") {
			break
		}
	}
	if _, err := p.expect(ptOp, ")"); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *plparser) parseTerm() (Term, error) {
	t := p.cur()
	switch t.kind {
	case ptUpper:
		p.next()
		if t.text == "_" {
			p.anon++
			return V(fmt.Sprintf("%s%d", anonPrefix, p.anon)), nil
		}
		return V(t.text), nil
	case ptLower:
		p.next()
		return C(value.NewString(t.text)), nil
	case ptString:
		p.next()
		return C(value.NewString(t.text)), nil
	case ptInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Term{}, fmt.Errorf("prismalog: bad integer %q", t.text)
		}
		return C(value.NewInt(n)), nil
	case ptFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Term{}, fmt.Errorf("prismalog: bad float %q", t.text)
		}
		return C(value.NewFloat(f)), nil
	}
	return Term{}, fmt.Errorf("prismalog: offset %d: expected a term, found %q", t.pos, t.text)
}
