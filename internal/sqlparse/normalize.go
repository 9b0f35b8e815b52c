package sqlparse

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// Normalize builds a plan-cache key for one SQL statement by lifting
// literal constants out as positional parameters: `SELECT * FROM acct
// WHERE id = 7` and `... WHERE id = 42` normalize to the same key,
// `SELECT * FROM acct WHERE id = ?`, with literals [7] and [42]. The key
// is itself a statement, a '?' where each lifted literal was, in lift
// order: on a miss the engine compiles the key through ParseStmt, as it
// compiles a prepared statement, caches the plan under it, and
// re-executes it with the literals bound — the XPRS-style compile-once
// discipline applied even to unprepared statements. A hit does not parse.
//
// Literals stay verbatim in the key (and out of the literal list) where
// the grammar consumes them structurally rather than as scalar
// expressions: LIKE patterns, LIMIT counts, and IN lists. Only SELECT,
// INSERT, UPDATE and DELETE are cacheable; anything else — and any
// statement carrying explicit '?'/'$n' placeholders — returns ok=false.
func Normalize(src string) (key string, literals []value.Value, ok bool) {
	toks, err := lex(src)
	if err != nil {
		return "", nil, false
	}
	if len(toks) == 0 || toks[0].kind != tokKeyword {
		return "", nil, false
	}
	switch toks[0].text {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
	default:
		return "", nil, false
	}

	var b strings.Builder
	b.Grow(len(src))
	verbatim := func(t token) {
		switch t.kind {
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
		default:
			b.WriteString(t.text)
		}
	}

	// IN-list tracking: depth of the paren group whose literals stay in
	// the key (-1 = not inside one).
	depth, inListDepth := 0, -1
	// Select-list literals shape the output schema (`SELECT 5 AS five`,
	// `salary * 2`), so they stay in the key rather than becoming
	// untyped parameters: inSelectList is true from SELECT until the
	// top-level FROM (the grammar has no subqueries).
	inSelectList := toks[0].text == "SELECT"
	// prev is the last token written (zero kind at start).
	var prev token
	havePrev := false

	// unaryMinus reports whether a '-' at this position is a sign rather
	// than subtraction, mirroring the parser's operand positions.
	unaryMinus := func() bool {
		if !havePrev {
			return true
		}
		switch prev.kind {
		case tokOp:
			return prev.text != ")"
		case tokKeyword:
			return prev.text != "TRUE" && prev.text != "FALSE" && prev.text != "NULL"
		}
		return false
	}

	litValue := func(t token) (value.Value, bool) {
		switch t.kind {
		case tokInt:
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return value.Null, false
			}
			return value.NewInt(n), true
		case tokFloat:
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return value.Null, false
			}
			return value.NewFloat(f), true
		case tokString:
			return value.NewString(t.text), true
		}
		return value.Null, false
	}

	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokParam {
			return "", nil, false // already parameterized: Prepare owns it
		}
		sep := func() {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
		}
		if inSelectList && t.kind == tokKeyword && t.text == "FROM" && depth == 0 {
			inSelectList = false
		}
		inVerbatimList := inListDepth >= 0 || inSelectList
		switch {
		case t.kind == tokOp && t.text == "(":
			depth++
			sep()
			verbatim(t)
		case t.kind == tokOp && t.text == ")":
			if inListDepth == depth {
				inListDepth = -1
			}
			depth--
			sep()
			verbatim(t)
		case t.kind == tokKeyword && t.text == "IN":
			// Literals inside IN (...) live in expr.In.List, not Const
			// nodes; keep them in the key.
			inListDepth = depth + 1
			sep()
			verbatim(t)
		case t.kind == tokKeyword && (t.text == "LIKE" || t.text == "LIMIT"):
			// The next literal is structural (pattern / count).
			sep()
			verbatim(t)
			if i+1 < len(toks) && litKind(toks[i+1].kind) {
				i++
				b.WriteByte(' ')
				verbatim(toks[i])
				prev = toks[i]
				continue
			}
		case litKind(t.kind) && !inVerbatimList:
			v, okv := litValue(t)
			if !okv {
				return "", nil, false
			}
			literals = append(literals, v)
			sep()
			b.WriteByte('?')
		case t.kind == tokOp && t.text == "-" && !inVerbatimList &&
			i+1 < len(toks) && litKind(toks[i+1].kind) && toks[i+1].kind != tokString && unaryMinus():
			// Fold the sign into the literal, as the parser does.
			v, okv := litValue(toks[i+1])
			if !okv {
				return "", nil, false
			}
			neg, err := value.Neg(v)
			if err != nil {
				return "", nil, false
			}
			literals = append(literals, neg)
			i++
			sep()
			b.WriteByte('?')
			prev = toks[i]
			continue
		default:
			sep()
			verbatim(t)
		}
		prev = t
		havePrev = true
	}
	return b.String(), literals, true
}

func litKind(k tokKind) bool { return k == tokInt || k == tokFloat || k == tokString }
