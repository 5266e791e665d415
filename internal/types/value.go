// Package types defines the value system shared by every layer of the
// engine: SQL values, rows, schemas, and the binary tuple encoding used by
// the heap storage layer.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"recdb/internal/geo"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
	KindGeometry
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindGeometry:
		return "GEOMETRY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName resolves a SQL type name (as written in CREATE TABLE) to a
// Kind. It accepts the common aliases.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindText, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "GEOMETRY":
		return KindGeometry, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	g    geo.Geometry
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewGeometry returns a GEOMETRY value.
func NewGeometry(g geo.Geometry) Value { return Value{kind: KindGeometry, g: g} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload; valid only for KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the float64 payload; valid only for KindFloat.
func (v Value) Float() float64 { return v.f }

// Text returns the string payload; valid only for KindText.
func (v Value) Text() string { return v.s }

// Bool returns the bool payload; valid only for KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// Geometry returns the geometry payload; valid only for KindGeometry.
func (v Value) Geometry() geo.Geometry { return v.g }

// AsFloat coerces numeric values to float64. It returns false for
// non-numeric kinds (including NULL).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsInt coerces numeric values to int64 (floats truncate). It returns false
// for non-numeric kinds.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	default:
		return 0, false
	}
}

// String renders the value the way the CLI prints it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindGeometry:
		if v.g == nil {
			return "GEOMETRY(nil)"
		}
		return v.g.WKT()
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare exactly across int/float — two BIGINTs as int64, a BIGINT and a
// DOUBLE without rounding the BIGINT — and NaN is one value, equal to
// itself and above every other number, as PostgreSQL orders it, so the
// numbers are totally ordered; text compares lexicographically; bool
// orders false < true. Comparing incompatible kinds (e.g. text vs int)
// returns an error so bugs surface instead of silently misordering.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmpInt(a.i, b.i), nil
	case a.kind == KindFloat && b.kind == KindFloat:
		return cmpFloat(a.f, b.f), nil
	case a.kind == KindInt && b.kind == KindFloat:
		return cmpIntFloat(a.i, b.f), nil
	case a.kind == KindFloat && b.kind == KindInt:
		return -cmpIntFloat(b.i, a.f), nil
	}
	switch a.kind {
	case KindText:
		if b.kind != KindText {
			return 0, incomparable(a, b)
		}
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		if b.kind != KindBool {
			return 0, incomparable(a, b)
		}
		return cmpInt(a.i, b.i), nil
	case KindGeometry:
		if b.kind != KindGeometry {
			return 0, incomparable(a, b)
		}
		return strings.Compare(a.String(), b.String()), nil
	}
	return 0, incomparable(a, b)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat orders two doubles with NaN equal to itself and above every
// other value; -0.0 and 0.0 are equal.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// cmpIntFloat orders an int64 against a double exactly: the double is
// cut to its integral part, which is an int64 whenever it lies in the
// int64 range, and the fraction breaks a tie.
func cmpIntFloat(i int64, f float64) int {
	const two63 = 1 << 63 // exact as a float64
	switch {
	case math.IsNaN(f), f >= two63:
		return -1
	case f < -two63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmpInt(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

func incomparable(a, b Value) error {
	return fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
}

// Equal reports whether two values compare equal. Incompatible kinds are
// simply unequal (no error), which matches SQL equality-predicate behaviour
// after planning-time type checks.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Hash returns a 64-bit hash of the value, consistent with Equal across the
// numeric kinds (1 and 1.0 hash identically, and so does every NaN).
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	word := func(tag byte, bits uint64) {
		mix(tag)
		for s := 0; s < 64; s += 8 {
			mix(byte(bits >> s))
		}
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt:
		word(1, uint64(v.i))
	case KindFloat:
		const two63 = 1 << 63
		switch f := v.f; {
		case f == math.Trunc(f) && f >= -two63 && f < two63:
			// An integral float hashes as the BIGINT it equals, so 1
			// and 1.0 collide (and so do 0.0 and -0.0).
			word(1, uint64(int64(f)))
		case math.IsNaN(f):
			word(2, math.Float64bits(math.NaN()))
		default:
			word(2, math.Float64bits(f))
		}
	case KindBool:
		word(3, uint64(v.i))
	case KindText:
		mix(4)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindGeometry:
		mix(5)
		s := v.String()
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	}
	return h
}
