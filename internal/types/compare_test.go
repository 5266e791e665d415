package types

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// bigRef orders two numeric values with arbitrary precision: NaN equal to
// itself and above every other number, everything else by its exact value
// (−0.0 equal to 0.0). It shares no code with Compare.
func bigRef(a, b Value) int {
	an, bn := a.Kind() == KindFloat && math.IsNaN(a.Float()), b.Kind() == KindFloat && math.IsNaN(b.Float())
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	exact := func(v Value) *big.Float {
		if v.Kind() == KindInt {
			return new(big.Float).SetInt64(v.Int())
		}
		return new(big.Float).SetFloat64(v.Float())
	}
	return exact(a).Cmp(exact(b))
}

// numericEdge draws a number near the places where a float64 stops
// holding every integer, or at the ends of both types.
func numericEdge(r *rand.Rand) Value {
	ints := []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1<<53 + 1), 1<<62 + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 63, -(1 << 63),
		math.Nextafter(1<<63, 0), math.Nextafter(-(1 << 63), 0), 1e300, -1e300, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64}
	switch r.IntN(4) {
	case 0:
		return NewInt(ints[r.IntN(len(ints))] + r.Int64N(5) - 2)
	case 1:
		return NewInt(r.Int64())
	case 2:
		f := floats[r.IntN(len(floats))]
		if !math.IsNaN(f) && !math.IsInf(f, 0) && r.IntN(2) == 0 {
			f = math.Nextafter(f, math.Inf(r.IntN(2)*2-1))
		}
		return NewFloat(f)
	default:
		return NewFloat(math.Float64frombits(r.Uint64()))
	}
}

// TestCompareExactAgainstBigFloat: Compare orders random pairs of BIGINT
// and DOUBLE values as an arbitrary-precision reference does — no BIGINT
// is rounded to a double — with NaN a single value above every number;
// Equal agrees with it, and Hash agrees with Equal.
func TestCompareExactAgainstBigFloat(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 200000; n++ {
		a, b := numericEdge(r), numericEdge(r)
		got, err := Compare(a, b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", a, b, err)
		}
		if want := bigRef(a, b); got != want {
			t.Fatalf("Compare(%v %v, %v %v) = %d, want %d", a.Kind(), a, b.Kind(), b, got, want)
		}
		if back, _ := Compare(b, a); back != -got {
			t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, got, b, a, back)
		}
		if Equal(a, b) != (got == 0) {
			t.Fatalf("Equal(%v, %v) = %v, Compare = %d", a, b, Equal(a, b), got)
		}
		if got == 0 && a.Hash() != b.Hash() {
			t.Fatalf("%v %v and %v %v are equal but hash apart", a.Kind(), a, b.Kind(), b)
		}
	}
}

// TestCompareBeyondTwoTo53: the values a float64 comparison made equal.
func TestCompareBeyondTwoTo53(t *testing.T) {
	a, b := NewInt(9007199254740992), NewInt(9007199254740993)
	if Equal(a, b) {
		t.Fatal("2⁵³ and 2⁵³+1 compare equal")
	}
	if !Equal(a, NewFloat(9007199254740992)) || Equal(b, NewFloat(9007199254740992)) {
		t.Fatal("a BIGINT and a DOUBLE compare by the double's rounding of the BIGINT")
	}
	nan := NewFloat(math.NaN())
	for _, v := range []Value{NewInt(3), NewFloat(3.5), NewFloat(math.Inf(1)), NewInt(math.MaxInt64)} {
		if c, _ := Compare(nan, v); c != 1 || Equal(nan, v) {
			t.Fatalf("NaN against %v: %d", v, c)
		}
	}
	if !Equal(nan, NewFloat(-math.NaN())) {
		t.Fatal("NaN does not equal NaN")
	}
}

// TestDecodeColumnsBuildsOnlyWhatIsNeeded: DecodeColumns reads the row
// DecodeRow reads, builds the columns it is asked for and leaves the rest
// NULL, and refuses a row of another width.
func TestDecodeColumnsBuildsOnlyWhatIsNeeded(t *testing.T) {
	row := Row{NewInt(-7), NewText("héllo"), NewFloat(2.5), Null(), NewBool(true), NewInt(1 << 40)}
	enc := EncodeRow(nil, row)
	for _, need := range [][]bool{nil, {true, false, true, false, false, true}, make([]bool, len(row))} {
		dst := make(Row, len(row))
		n, err := DecodeColumns(enc, dst, need)
		if err != nil || n != len(enc) {
			t.Fatalf("need %v: %d bytes, %v", need, n, err)
		}
		for i := range row {
			want := row[i]
			if need != nil && !need[i] {
				want = Null()
			}
			if !Equal(dst[i], want) || dst[i].Kind() != want.Kind() {
				t.Fatalf("need %v: column %d is %v, want %v", need, i, dst[i], want)
			}
		}
	}
	if _, err := DecodeColumns(enc, make(Row, 3), nil); err == nil {
		t.Fatal("a six-value row decoded into three slots")
	}
}

// TestDecodeRowsIsDecodeRowPerTuple: the slab decode of n tuples equals
// DecodeRow tuple by tuple, hands out clipped rows, and allocates the
// same number of times for 10 rows as for 1000.
func TestDecodeRowsIsDecodeRowPerTuple(t *testing.T) {
	encode := func(n int) []byte {
		var enc []byte
		for i := 0; i < n; i++ {
			enc = EncodeRow(enc, Row{NewInt(int64(i)), NewText("t" + string(rune('a'+i%26))), NewFloat(float64(i) / 3)})
		}
		return enc
	}
	enc := encode(10)
	rows, err := DecodeRows(enc, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, rest := 0, enc; i < 10; i++ {
		want, n, err := DecodeRow(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		if len(rows[i]) != cap(rows[i]) || rows[i].String() != want.String() {
			t.Fatalf("row %d: %v (cap %d), want %v", i, rows[i], cap(rows[i]), want)
		}
	}
	if _, err := DecodeRows(enc, 9); err == nil {
		t.Fatal("DecodeRows left a tuple over without an error")
	}
	small, large := encode(10), encode(1000)
	a := testing.AllocsPerRun(20, func() { _, _ = DecodeRows(small, 10) })
	b := testing.AllocsPerRun(20, func() { _, _ = DecodeRows(large, 1000) })
	if a != b || a > 3 {
		t.Fatalf("DecodeRows allocates %v times for 10 rows, %v for 1000", a, b)
	}
}
