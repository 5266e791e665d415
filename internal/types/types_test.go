package types

import (
	"math"
	"testing"
	"testing/quick"

	"recdb/internal/geo"
)

func TestKindFromName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
	}{
		{"INT", KindInt}, {"integer", KindInt}, {"BIGINT", KindInt},
		{"FLOAT", KindFloat}, {"double", KindFloat}, {"NUMERIC", KindFloat},
		{"TEXT", KindText}, {"varchar", KindText},
		{"BOOLEAN", KindBool}, {"bool", KindBool},
		{"GEOMETRY", KindGeometry},
	}
	for _, c := range cases {
		got, err := KindFromName(c.name)
		if err != nil || got != c.want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := KindFromName("BLOB"); err == nil {
		t.Error("KindFromName(BLOB) should fail")
	}
}

func TestValueAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 || v.IsNull() {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewText("hi"); v.Kind() != KindText || v.Text() != "hi" {
		t.Errorf("NewText: %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool: %v", v)
	}
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
}

func TestAsFloatAndAsInt(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("int AsFloat: %v %v", f, ok)
	}
	if f, ok := NewFloat(3.5).AsFloat(); !ok || f != 3.5 {
		t.Errorf("float AsFloat: %v %v", f, ok)
	}
	if _, ok := NewText("x").AsFloat(); ok {
		t.Error("text AsFloat should fail")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("float AsInt should truncate: %v %v", i, ok)
	}
	if _, ok := Null().AsInt(); ok {
		t.Error("null AsInt should fail")
	}
}

func TestCompare(t *testing.T) {
	mustCmp := func(a, b Value, want int) {
		t.Helper()
		got, err := Compare(a, b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", a, b, err)
		}
		if got != want {
			t.Fatalf("Compare(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
	mustCmp(NewInt(1), NewInt(2), -1)
	mustCmp(NewInt(2), NewInt(2), 0)
	mustCmp(NewInt(3), NewFloat(2.5), 1)
	mustCmp(NewFloat(1.5), NewInt(2), -1)
	mustCmp(NewText("a"), NewText("b"), -1)
	mustCmp(NewBool(false), NewBool(true), -1)
	mustCmp(Null(), NewInt(0), -1)
	mustCmp(NewInt(0), Null(), 1)
	mustCmp(Null(), Null(), 0)

	if _, err := Compare(NewInt(1), NewText("1")); err == nil {
		t.Error("int vs text should error")
	}
	if _, err := Compare(NewBool(true), NewInt(1)); err == nil {
		t.Error("bool vs int should error")
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(NewInt(1), NewFloat(1.0)) {
		t.Error("1 should equal 1.0")
	}
	if Equal(NewInt(1), NewText("1")) {
		t.Error("1 should not equal '1'")
	}
	if !Equal(Null(), Null()) {
		t.Error("null equals null under our semantics")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if NewInt(7).Hash() != NewFloat(7.0).Hash() {
		t.Error("7 and 7.0 must hash identically")
	}
	if NewText("abc").Hash() == NewText("abd").Hash() {
		t.Error("different strings should (almost surely) hash differently")
	}
}

func TestEncodeDecodeRowAllKinds(t *testing.T) {
	row := Row{
		NewInt(-123456789),
		NewFloat(math.Pi),
		NewText("hello, 世界"),
		NewBool(true),
		Null(),
		NewGeometry(geo.Point{X: 1.5, Y: -2.5}),
		NewGeometry(geo.Rect(0, 0, 4, 4)),
	}
	buf := EncodeRow(nil, row)
	got, n, err := DecodeRow(buf)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(row) {
		t.Fatalf("got %d values, want %d", len(got), len(row))
	}
	for i := range row {
		if row[i].Kind() == KindGeometry {
			if got[i].String() != row[i].String() {
				t.Errorf("value %d: got %v want %v", i, got[i], row[i])
			}
			continue
		}
		if !Equal(got[i], row[i]) || got[i].Kind() != row[i].Kind() {
			t.Errorf("value %d: got %v want %v", i, got[i], row[i])
		}
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	row := Row{NewInt(1), NewText("abcdef"), NewFloat(1.25)}
	buf := EncodeRow(nil, row)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut]); err == nil {
			// Some prefixes decode as a shorter valid row only if the count
			// byte says so; with a 3-value count every cut must fail.
			t.Errorf("cut at %d decoded without error", cut)
		}
	}
	// A declared count or string length the bytes cannot back is an error,
	// not an allocation of that size (or a makeslice panic past 2^62).
	for _, bad := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},                         // 2^63-1 values
		{0x80, 0x80, 0x80, 0x08, byte(KindNull)},                                       // 2^24 values, one present
		{1, byte(KindText), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'}, // 2^63-1 byte string
	} {
		if _, _, err := DecodeRow(bad); err == nil {
			t.Errorf("DecodeRow(% x) decoded without error", bad)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			return true
		}
		row := Row{NewInt(i), NewFloat(fl), NewText(s), NewBool(b), Null()}
		buf := EncodeRow(nil, row)
		got, n, err := DecodeRow(buf)
		if err != nil || n != len(buf) || len(got) != len(row) {
			return false
		}
		for j := range row {
			if got[j].Kind() != row[j].Kind() || !Equal(got[j], row[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaResolve(t *testing.T) {
	s := NewSchema(
		Column{Qualifier: "r", Name: "uid", Kind: KindInt},
		Column{Qualifier: "r", Name: "iid", Kind: KindInt},
		Column{Qualifier: "m", Name: "iid", Kind: KindInt},
		Column{Qualifier: "m", Name: "name", Kind: KindText},
	)
	if i, err := s.Resolve("r", "uid"); err != nil || i != 0 {
		t.Errorf("r.uid: %d, %v", i, err)
	}
	if i, err := s.Resolve("", "name"); err != nil || i != 3 {
		t.Errorf("name: %d, %v", i, err)
	}
	if _, err := s.Resolve("", "iid"); err == nil {
		t.Error("ambiguous iid should error")
	}
	if _, err := s.Resolve("r", "nope"); err == nil {
		t.Error("unknown column should error")
	}
	// Case-insensitive.
	if i, err := s.Resolve("R", "UID"); err != nil || i != 0 {
		t.Errorf("R.UID: %d, %v", i, err)
	}
}

func TestSchemaWithQualifierAndConcat(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt}).WithQualifier("t")
	if s.Columns[0].Qualifier != "t" {
		t.Fatalf("qualifier = %q", s.Columns[0].Qualifier)
	}
	u := NewSchema(Column{Qualifier: "u", Name: "b", Kind: KindText})
	j := s.Concat(u)
	if j.Len() != 2 || j.Columns[1].QualifiedName() != "u.b" {
		t.Fatalf("concat: %+v", j.Columns)
	}
}

func TestRowCloneAndConcat(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone should not share backing array effects")
	}
	j := r.Concat(Row{NewText("x")})
	if len(j) != 3 || j[2].Text() != "x" {
		t.Errorf("concat: %v", j)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindText: "TEXT", KindBool: "BOOLEAN", KindGeometry: "GEOMETRY",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind: %q", Kind(99).String())
	}
}

func TestValueStringAllKinds(t *testing.T) {
	cases := map[string]Value{
		"NULL":          Null(),
		"42":            NewInt(42),
		"2.5":           NewFloat(2.5),
		"hi":            NewText("hi"),
		"true":          NewBool(true),
		"false":         NewBool(false),
		"POINT(1 2)":    NewGeometry(geo.Point{X: 1, Y: 2}),
		"GEOMETRY(nil)": Value{},
	}
	for want, v := range cases {
		if want == "NULL" && v.Kind() != KindNull {
			continue
		}
		if want == "GEOMETRY(nil)" {
			// A geometry value with a nil payload (only reachable through
			// decoding an empty geometry).
			continue
		}
		if v.String() != want {
			t.Errorf("String() = %q, want %q", v.String(), want)
		}
	}
}

func TestGeometryAccessor(t *testing.T) {
	p := geo.Point{X: 3, Y: 4}
	v := NewGeometry(p)
	if v.Geometry() != p {
		t.Fatalf("Geometry() = %v", v.Geometry())
	}
}

func TestCompareGeometryAndBoolEdge(t *testing.T) {
	a := NewGeometry(geo.Point{X: 1, Y: 2})
	b := NewGeometry(geo.Point{X: 1, Y: 3})
	c, err := Compare(a, b)
	if err != nil || c == 0 {
		t.Fatalf("geometry compare: %d %v", c, err)
	}
	if _, err := Compare(a, NewInt(1)); err == nil {
		t.Error("geometry vs int should error")
	}
	if c, _ := Compare(NewBool(true), NewBool(true)); c != 0 {
		t.Error("bool self-compare")
	}
	if c, _ := Compare(NewBool(true), NewBool(false)); c != 1 {
		t.Error("true > false")
	}
}

func TestHashKinds(t *testing.T) {
	vals := []Value{
		Null(), NewInt(1), NewFloat(1.5), NewFloat(math.Inf(1)),
		NewText(""), NewBool(true), NewBool(false),
		NewGeometry(geo.Point{X: 1, Y: 2}),
	}
	seen := map[uint64][]int{}
	for i, v := range vals {
		seen[v.Hash()] = append(seen[v.Hash()], i)
	}
	// All distinct values here should hash distinctly (no guarantees in
	// general, but collisions across these few would indicate a bug).
	for h, idxs := range seen {
		if len(idxs) > 1 {
			t.Errorf("hash collision %d between %v", h, idxs)
		}
	}
	// Hash of NaN-ish non-integral floats is stable.
	if NewFloat(2.5).Hash() != NewFloat(2.5).Hash() {
		t.Error("hash not deterministic")
	}
}

func TestRowStringAndSchemaQualified(t *testing.T) {
	r := Row{NewInt(1), NewText("x")}
	if r.String() != "(1, x)" {
		t.Errorf("Row.String() = %q", r.String())
	}
	c := Column{Name: "a"}
	if c.QualifiedName() != "a" {
		t.Errorf("unqualified: %q", c.QualifiedName())
	}
	c.Qualifier = "t"
	if c.QualifiedName() != "t.a" {
		t.Errorf("qualified: %q", c.QualifiedName())
	}
}

func TestAsIntNonNumeric(t *testing.T) {
	if _, ok := NewText("5").AsInt(); ok {
		t.Error("text AsInt should fail")
	}
	if _, ok := NewBool(true).AsInt(); ok {
		t.Error("bool AsInt should fail")
	}
}
