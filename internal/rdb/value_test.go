package rdb

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if v := NewInt(42); v.Kind != KindInt || v.Int != 42 || v.AsFloat() != 42.0 {
		t.Errorf("NewInt: got %+v", v)
	}
	if v := NewFloat(2.5); v.Kind != KindFloat || v.Float != 2.5 || v.AsFloat() != 2.5 {
		t.Errorf("NewFloat: got %+v", v)
	}
	if v := NewText("hi"); v.Kind != KindText || v.Str != "hi" {
		t.Errorf("NewText: got %+v", v)
	}
	if v := NewBool(true); v.Kind != KindBool || !v.Bool {
		t.Errorf("NewBool: got %+v", v)
	}
	if !NewInt(1).IsNumeric() || !NewFloat(1).IsNumeric() || NewText("1").IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewText("abc"), "abc"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{MinSentinel(), "-inf"},
		{MaxSentinel(), "+inf"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestCompareOrderingAcrossKinds(t *testing.T) {
	// Total order: min < null < bool < numeric < text < max.
	ordered := []Value{
		MinSentinel(), Null(), NewBool(false), NewBool(true),
		NewInt(-5), NewFloat(-1.5), NewInt(0), NewFloat(0.5), NewInt(1),
		NewText(""), NewText("a"), NewText("b"), MaxSentinel(),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	if Compare(NewInt(1), NewFloat(1.0)) != 0 {
		t.Error("1 should equal 1.0")
	}
	if Compare(NewInt(2), NewFloat(1.5)) != 1 {
		t.Error("2 > 1.5")
	}
	if Compare(NewFloat(1.5), NewInt(2)) != -1 {
		t.Error("1.5 < 2")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should compare equal to itself for index stability")
	}
	if Compare(nan, NewFloat(0)) != -1 {
		t.Error("NaN sorts below numbers")
	}
	if Compare(NewFloat(0), nan) != 1 {
		t.Error("numbers sort above NaN")
	}
}

func TestKeyEncodingConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1), NewFloat(1.0)},
		{NewText("x"), NewText("x")},
		{Null(), Null()},
		{NewBool(true), NewBool(true)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if EncodeKeyString(Key{p[0]}) != EncodeKeyString(Key{p[1]}) {
			t.Errorf("equal values %v, %v have different key encodings", p[0], p[1])
		}
	}
}

// Property: Compare is antisymmetric and Equal values encode identically.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := NewText(a), NewText(b)
		if Compare(va, vb) != -Compare(vb, va) {
			return false
		}
		if Equal(va, vb) && EncodeKeyString(Key{va}) != EncodeKeyString(Key{vb}) {
			return false
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: int/float coercion equality implies key-encoding equality.
func TestIntFloatKeyProperty(t *testing.T) {
	f := func(n int32) bool {
		i := NewInt(int64(n))
		fl := NewFloat(float64(n))
		return Equal(i, fl) && EncodeKeyString(Key{i}) == EncodeKeyString(Key{fl})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerceTo(t *testing.T) {
	cases := []struct {
		in      Value
		to      Kind
		want    Value
		wantErr bool
	}{
		{NewInt(5), KindFloat, NewFloat(5), false},
		{NewFloat(5.9), KindInt, NewInt(5), false},
		{NewText("42"), KindInt, NewInt(42), false},
		{NewText(" 42 "), KindInt, NewInt(42), false},
		{NewText("3.5"), KindFloat, NewFloat(3.5), false},
		{NewText("3.5"), KindInt, NewInt(3), false},
		{NewText("abc"), KindInt, Null(), true},
		{NewInt(42), KindText, NewText("42"), false},
		{NewBool(true), KindInt, NewInt(1), false},
		{NewBool(false), KindFloat, NewFloat(0), false},
		{NewText("true"), KindBool, NewBool(true), false},
		{NewText("0"), KindBool, NewBool(false), false},
		{NewText("maybe"), KindBool, Null(), true},
		{NewInt(0), KindBool, NewBool(false), false},
		{Null(), KindInt, Null(), false},
		{NewInt(7), KindInt, NewInt(7), false},
	}
	for _, c := range cases {
		got, err := c.in.CoerceTo(c.to)
		if c.wantErr {
			if err == nil {
				t.Errorf("CoerceTo(%v, %v): want error, got %v", c.in, c.to, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("CoerceTo(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !Equal(got, c.want) || got.Kind != c.want.Kind {
			t.Errorf("CoerceTo(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewText("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int != 1 {
		t.Error("Clone should not alias")
	}
	if Row(nil).Clone() != nil {
		t.Error("nil row clones to nil")
	}
}

func TestCompareKeysPrefixSemantics(t *testing.T) {
	a := Key{NewInt(1)}
	b := Key{NewInt(1), NewInt(2)}
	if CompareKeys(a, b) != -1 {
		t.Error("prefix sorts first")
	}
	if CompareKeys(b, a) != 1 {
		t.Error("longer sorts after prefix")
	}
	if CompareKeys(b, b) != 0 {
		t.Error("equal keys")
	}
	if CompareKeys(Key{NewInt(2)}, b) != 1 {
		t.Error("element comparison dominates length")
	}
}

func TestEncodeKeyStringInjective(t *testing.T) {
	// Keys that must not collide: text boundary ambiguity.
	k1 := Key{NewText("ab"), NewText("c")}
	k2 := Key{NewText("a"), NewText("bc")}
	if EncodeKeyString(k1) == EncodeKeyString(k2) {
		t.Error("length prefixing failed: composite text keys collide")
	}
	// Numeric coercion must collide intentionally.
	k3 := Key{NewInt(1)}
	k4 := Key{NewFloat(1.0)}
	if EncodeKeyString(k3) != EncodeKeyString(k4) {
		t.Error("1 and 1.0 should encode identically")
	}
	// So must the values Compare holds equal although their bits differ:
	// -0 and +0, and NaNs with different payloads.
	negZero := NewFloat(math.Copysign(0, -1))
	if EncodeKeyString(Key{negZero}) != EncodeKeyString(Key{NewFloat(0)}) ||
		EncodeKeyString(Key{negZero}) != EncodeKeyString(Key{NewInt(0)}) {
		t.Error("-0 and 0 should encode identically")
	}
	otherNaN := NewFloat(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))
	if !Equal(otherNaN, NewFloat(math.NaN())) || EncodeKeyString(Key{otherNaN}) != EncodeKeyString(Key{NewFloat(math.NaN())}) {
		t.Error("NaNs should encode identically")
	}
}

// Property: key encoding equality matches CompareKeys equality for text keys.
func TestEncodeKeyStringProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		ka := Key{NewText(a1), NewText(a2)}
		kb := Key{NewText(b1), NewText(b2)}
		enc := EncodeKeyString(ka) == EncodeKeyString(kb)
		cmp := CompareKeys(ka, kb) == 0
		return enc == cmp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueSize pins the field order that packs Kind and Bool into one word.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 40 {
		t.Errorf("Value is %d bytes, want 40", got)
	}
}

// TestCompareIntFloatExact: INT and FLOAT compare exactly, not through a
// float64 that rounds integers above 2^53.
func TestCompareIntFloatExact(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(p53 + 1), NewFloat(p53), 1},
		{NewFloat(p53), NewInt(p53 + 1), -1},
		{NewInt(p53), NewFloat(p53), 0},
		{NewInt(p53 + 1), NewFloat(p53 + 2), -1},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63)), 0},
		{NewInt(0), NewFloat(math.Copysign(0, -1)), 0},
		{NewInt(-1), NewFloat(-0.5), -1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewInt(-3), NewFloat(-2.5), -1},
		{NewInt(math.MinInt64), NewFloat(math.Inf(-1)), 1},
		{NewInt(math.MaxInt64), NewFloat(math.Inf(1)), -1},
		{NewInt(math.MinInt64), NewFloat(math.NaN()), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v %v, %v %v) = %d, want %d", c.a.Kind, c.a, c.b.Kind, c.b, got, c.want)
		}
	}
}

// TestNumericOrderProperties: over values near 2^53, the int64 and float
// limits, ±0, NaN and ±Inf, Compare is antisymmetric and transitive, and
// EncodeKeyString (hence Hash and DISTINCT) agrees with its equality.
func TestNumericOrderProperties(t *testing.T) {
	var vals []Value
	for _, n := range []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		vals = append(vals, NewInt(n))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1 << 53, 1<<53 + 2, 1<<52 + 0.5,
		-(1 << 53), 1 << 63, -(1 << 63), math.Nextafter(1<<63, 0), math.Nextafter(-(1 << 63), 0),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001), math.MaxFloat64} {
		vals = append(vals, NewFloat(f))
	}
	name := func(v Value) string { return v.Kind.String() + " " + v.String() }
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Errorf("antisymmetry: %s vs %s: %d and %d", name(a), name(b), ab, ba)
			}
			if same := EncodeKeyString(Key{a}) == EncodeKeyString(Key{b}); same != (ab == 0) {
				t.Errorf("key encoding: %s vs %s compare %d but encode equal = %v", name(a), name(b), ab, same)
			}
			for _, c := range vals {
				if ab <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("transitivity: %s <= %s <= %s but %s > %s", name(a), name(b), name(c), name(a), name(c))
				}
			}
		}
	}
}
