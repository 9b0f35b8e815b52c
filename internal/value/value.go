// Package value defines the typed scalar values, schemas, tuples and
// relations that every layer of the PRISMA reproduction is built on.
//
// PRISMA is a main-memory machine: tuples are kept as compact in-memory
// arrays of Value, not serialized pages. A Value is a small tagged union
// so that slices of them stay allocation-free for the common kinds. The
// executor holds rows column-wise instead, in a Batch of typed vectors
// (Vec), whose NULLs are a bitmap in the layout of its filter masks: a bit
// per row, 64 rows a uint64 word.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The kinds supported by the PRISMA type system. PRISMAlog and the SQL
// subset both map onto these.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar database value: NULL, boolean, 64-bit integer, 64-bit
// float or string. The zero Value is NULL.
type Value struct {
	kind Kind
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
	str  string
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// NewFloat returns a float Value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{kind: KindString, str: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It is valid only for KindBool.
func (v Value) Bool() bool { return v.num != 0 }

// Int returns the integer payload. It is valid only for KindInt.
func (v Value) Int() int64 { return int64(v.num) }

// Float returns the float payload. For KindInt it converts; otherwise it is
// valid only for KindFloat.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(int64(v.num))
	}
	return math.Float64frombits(v.num)
}

// Str returns the string payload. It is valid only for KindString.
func (v Value) Str() string { return v.str }

// String renders v for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return v.str
	default:
		return fmt.Sprintf("<bad kind %d>", v.kind)
	}
}

// Quoted renders v as a literal: strings are single-quoted, others as String.
func (v Value) Quoted() string {
	if v.kind == KindString {
		return "'" + v.str + "'"
	}
	return v.String()
}

// numericKinds reports whether both values are numeric (int or float).
func numericKinds(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) && (b.kind == KindInt || b.kind == KindFloat)
}

// Comparable reports whether a and b can be ordered against each other.
// Values of the same kind are always comparable; ints and floats are
// mutually comparable; NULL is comparable with everything (sorting first).
func Comparable(a, b Value) bool {
	if a.kind == b.kind || a.kind == KindNull || b.kind == KindNull {
		return true
	}
	return numericKinds(a, b)
}

// Compare orders a against b: -1, 0 or +1. NULL sorts before everything.
// Ints and floats compare numerically; otherwise kinds must match (a
// mismatch orders by kind so that sorting heterogeneous data is total).
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind != b.kind {
		if numericKinds(a, b) {
			return cmpFloat(a.Float(), b.Float())
		}
		// Total order across kinds keeps sorts stable on mixed data.
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindBool:
		ab, bb := a.num, b.num
		switch {
		case ab == bb:
			return 0
		case ab < bb:
			return -1
		default:
			return 1
		}
	case KindInt:
		ai, bi := int64(a.num), int64(b.num)
		switch {
		case ai == bi:
			return 0
		case ai < bi:
			return -1
		default:
			return 1
		}
	case KindFloat:
		return cmpFloat(a.Float(), b.Float())
	case KindString:
		switch {
		case a.str == b.str:
			return 0
		case a.str < b.str:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a == b:
		return 0
	case a < b:
		return -1
	case a > b:
		return 1
	// NaN sorts before all numbers, after nothing.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

// Equal reports whether a and b are the same value (numeric cross-kind
// equality included).
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	return Compare(a, b) == 0
}

// Less reports whether a orders strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// ErrIntRange is what integer arithmetic raises on a result outside int64.
var ErrIntRange = fmt.Errorf("value: integer out of range")

// AddInt, SubInt, MulInt, DivInt, ModInt and NegInt are the integer
// arithmetic of Add, Sub, Mul, Div, Mod and Neg: ok is false where those
// raise, on a result outside int64 or a zero divisor.
func AddInt(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

func SubInt(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

func MulInt(a, b int64) (int64, bool) {
	p := a * b
	return p, a == 0 || p/a == b && (a != -1 || b != math.MinInt64)
}

func DivInt(a, b int64) (int64, bool) {
	if b == 0 || a == math.MinInt64 && b == -1 {
		return 0, false
	}
	return a / b, true
}

func ModInt(a, b int64) (int64, bool) {
	if b == 0 {
		return 0, false
	}
	return a % b, true
}

func NegInt(a int64) (int64, bool) { return -a, a != math.MinInt64 }

// checked boxes the result of a checked integer operation.
func checked(r int64, ok bool) (Value, error) {
	if !ok {
		return Null, ErrIntRange
	}
	return NewInt(r), nil
}

// Add returns a+b for numeric values; string concatenation for strings.
func Add(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return checked(AddInt(int64(a.num), int64(b.num)))
	case numericKinds(a, b):
		return NewFloat(a.Float() + b.Float()), nil
	case a.kind == KindString && b.kind == KindString:
		return NewString(a.str + b.str), nil
	case a.kind == KindNull || b.kind == KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot add %s and %s", a.kind, b.kind)
}

// Sub returns a-b for numeric values.
func Sub(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return checked(SubInt(int64(a.num), int64(b.num)))
	case numericKinds(a, b):
		return NewFloat(a.Float() - b.Float()), nil
	case a.kind == KindNull || b.kind == KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot subtract %s and %s", a.kind, b.kind)
}

// Mul returns a*b for numeric values.
func Mul(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return checked(MulInt(int64(a.num), int64(b.num)))
	case numericKinds(a, b):
		return NewFloat(a.Float() * b.Float()), nil
	case a.kind == KindNull || b.kind == KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot multiply %s and %s", a.kind, b.kind)
}

// Div returns a/b for numeric values. Integer division truncates; division
// by zero is an error.
func Div(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.num == 0 {
			return Null, fmt.Errorf("value: integer division by zero")
		}
		return checked(DivInt(int64(a.num), int64(b.num)))
	case numericKinds(a, b):
		if b.Float() == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return NewFloat(a.Float() / b.Float()), nil
	case a.kind == KindNull || b.kind == KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot divide %s and %s", a.kind, b.kind)
}

// Mod returns a%b for integer values.
func Mod(a, b Value) (Value, error) {
	if a.kind == KindInt && b.kind == KindInt {
		if b.num == 0 {
			return Null, fmt.Errorf("value: modulo by zero")
		}
		return NewInt(int64(a.num) % int64(b.num)), nil
	}
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot take %s mod %s", a.kind, b.kind)
}

// Neg returns -a for numeric values.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindInt:
		return checked(NegInt(int64(a.num)))
	case KindFloat:
		return NewFloat(-a.Float()), nil
	case KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: cannot negate %s", a.kind)
}

// Size returns the approximate in-memory footprint of v in bytes. The
// machine model uses this for the 16 MB/PE memory accounting.
func (v Value) Size() int {
	// tag + payload word + string header & bytes.
	const base = 16
	if v.kind == KindString {
		return base + len(v.str)
	}
	return base
}
