// Package rdb implements an embedded relational database engine: typed
// tables, secondary indexes (hash and B+tree), and snapshot persistence.
//
// The engine is the storage substrate of the MDV metadata management system.
// The paper implements its publish & subscribe filter "using a standard
// relational database system"; rdb plays the role of that system. It is
// deliberately a classical design — heap tables addressed by stable row IDs,
// secondary indexes mapping composite keys to row IDs, and a SQL front end in
// the rdb/sql subpackage — so that the filter algorithm's cost profile
// (index lookups vs. scans, join fan-out) matches what the paper measured on
// a commercial RDBMS.
package rdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindMin and KindMax are sentinel kinds used
// only as index range-scan bounds; they never appear in stored rows.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindText
	KindMin // sentinel: compares below every value
	KindMax // sentinel: compares above every value
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindMin:
		return "-inf"
	case KindMax:
		return "+inf"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL. Kind and
// Bool lead so they share one word: a Value is 40 bytes, not 48, and every
// stored row and index probe carries several.
type Value struct {
	Kind  Kind
	Bool  bool
	Int   int64
	Float float64
	Str   string
}

// Null returns the NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{Kind: KindText, Str: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// MinSentinel returns the sentinel that sorts below every value, for use as
// an inclusive lower bound in index range scans.
func MinSentinel() Value { return Value{Kind: KindMin} }

// MaxSentinel returns the sentinel that sorts above every value, for use as
// an inclusive upper bound in index range scans.
func MaxSentinel() Value { return Value{Kind: KindMax} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat returns the value as a float64. Only valid for numeric kinds.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.Int)
	}
	return v.Float
}

// String renders the value for display and for canonical encodings such as
// rule texts. TEXT values are rendered without quotes.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return v.Str
	case KindMin:
		return "-inf"
	case KindMax:
		return "+inf"
	default:
		return "<invalid>"
	}
}

// typeRank orders kinds for cross-kind comparison. NULL sorts lowest (after
// KindMin), then BOOL, then numerics (INT and FLOAT share a rank and compare
// numerically), then TEXT, then KindMax.
func typeRank(k Kind) int {
	switch k {
	case KindMin:
		return 0
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 3
	case KindText:
		return 4
	case KindMax:
		return 5
	default:
		return 6
	}
}

// Compare defines a total order over values, used by B+tree indexes and
// ORDER BY. Values of different kinds are ordered by type rank, except that
// INT and FLOAT compare numerically with each other — exactly, not through
// float64, so 2^53+1 sorts above the FLOAT 2^53 it would round to. NaN sorts
// below every other number and equals itself; -0 equals +0. It returns -1,
// 0, or +1.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.Kind), typeRank(b.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindNull, KindMin, KindMax:
		return 0
	case KindBool:
		if a.Bool == b.Bool {
			return 0
		}
		if !a.Bool {
			return -1
		}
		return 1
	case KindText:
		return strings.Compare(a.Str, b.Str)
	}
	// Numeric rank: INT and/or FLOAT.
	switch {
	case a.Kind == KindInt && b.Kind == KindInt:
		return cmpInt(a.Int, b.Int)
	case a.Kind == KindInt:
		return -compareFloatInt(b.Float, a.Int)
	case b.Kind == KindInt:
		return compareFloatInt(a.Float, b.Int)
	}
	af, bf := a.Float, b.Float
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	case math.IsNaN(af) && !math.IsNaN(bf):
		return -1
	case !math.IsNaN(af) && math.IsNaN(bf):
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareFloatInt compares a FLOAT with an INT exactly: through the float's
// integral part, which converts to int64 without loss whenever it is in
// range, and then its fraction.
func compareFloatInt(f float64, i int64) int {
	switch {
	case math.IsNaN(f):
		return -1
	case f < -(1 << 63):
		return -1
	case f >= 1<<63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmpInt(int64(t), i); c != 0 {
		return c
	}
	switch frac := f - t; {
	case frac > 0:
		return 1
	case frac < 0:
		return -1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics.
// Note that under this definition NULL equals NULL; SQL three-valued
// comparison semantics are implemented in the expression evaluator, not here.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// NumValue is the typed numeric shadow of a lexical form: the FLOAT that
// CAST(s AS FLOAT) yields (same trimming, same accepted forms, so Inf and
// NaN lexicals round-trip), or NULL where CAST would fail, which no
// comparison matches. The MDP's statements and filter rules and the LMR's
// cache fill their num_value columns with it, and a query compares against a
// parameter made by it, so a rule and a query with the same predicate agree
// by construction.
func NumValue(s string) Value {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return Null()
	}
	return NewFloat(f)
}

// CoerceTo converts the value to the target kind, if a lossless or standard
// SQL conversion exists. It implements CAST semantics: numeric<->numeric,
// anything->TEXT via String, TEXT->numeric via parsing, and NULL->anything
// (stays NULL).
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.Kind == k || v.Kind == KindNull {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.Kind {
		case KindFloat:
			return NewInt(int64(v.Float)), nil
		case KindText:
			i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
			if err != nil {
				f, ferr := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
				if ferr != nil {
					return Null(), fmt.Errorf("rdb: cannot cast %q to INT", v.Str)
				}
				return NewInt(int64(f)), nil
			}
			return NewInt(i), nil
		case KindBool:
			if v.Bool {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case KindFloat:
		switch v.Kind {
		case KindInt:
			return NewFloat(float64(v.Int)), nil
		case KindText:
			f := NumValue(v.Str)
			if f.Kind == KindNull {
				return Null(), fmt.Errorf("rdb: cannot cast %q to FLOAT", v.Str)
			}
			return f, nil
		case KindBool:
			if v.Bool {
				return NewFloat(1), nil
			}
			return NewFloat(0), nil
		}
	case KindText:
		return NewText(v.String()), nil
	case KindBool:
		switch v.Kind {
		case KindInt:
			return NewBool(v.Int != 0), nil
		case KindFloat:
			return NewBool(v.Float != 0), nil
		case KindText:
			switch strings.ToLower(strings.TrimSpace(v.Str)) {
			case "true", "t", "1":
				return NewBool(true), nil
			case "false", "f", "0":
				return NewBool(false), nil
			}
			return Null(), fmt.Errorf("rdb: cannot cast %q to BOOL", v.Str)
		}
	}
	return Null(), fmt.Errorf("rdb: unsupported cast from %s to %s", v.Kind, k)
}

// Row is a tuple of values. Rows stored in a table always have exactly one
// value per column of the table definition.
type Row []Value

// Clone returns a deep copy of the row. Values are immutable, so a shallow
// copy of the slice suffices.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key is a composite index key: a sequence of values compared element-wise.
type Key []Value

// CompareKeys orders composite keys element-wise. If one key is a prefix of
// the other, the shorter key sorts first. Sentinel kinds (KindMin/KindMax)
// inside a key make it usable as a range bound.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// EncodeKeyString encodes a key to a string usable as a Go map key, with
// the same equality as CompareKeys. The SQL executor's DISTINCT uses it.
func EncodeKeyString(k Key) string {
	var sb strings.Builder
	for _, v := range k {
		switch v.Kind {
		case KindNull:
			sb.WriteByte(0)
		case KindBool:
			sb.WriteByte(1)
			if v.Bool {
				sb.WriteByte(1)
			} else {
				sb.WriteByte(0)
			}
		case KindInt, KindFloat:
			// A number equal to some int64 — every INT, and every integral
			// FLOAT in range, -0 included — encodes as that int64, so it
			// meets Compare's exact INT/FLOAT equality; any other FLOAT
			// encodes its bits, with every NaN made one.
			bits, tag := uint64(v.Int), byte(2)
			if f := v.Float; v.Kind == KindFloat {
				if t := math.Trunc(f); t == f && f >= -(1<<63) && f < 1<<63 {
					bits = uint64(int64(f))
				} else {
					if math.IsNaN(f) {
						f = math.NaN()
					}
					bits, tag = math.Float64bits(f), 4
				}
			}
			sb.WriteByte(tag)
			for i := 0; i < 8; i++ {
				sb.WriteByte(byte(bits >> (8 * i)))
			}
		case KindText:
			sb.WriteByte(3)
			// Length-prefix so concatenated keys cannot collide.
			n := len(v.Str)
			for i := 0; i < 4; i++ {
				sb.WriteByte(byte(n >> (8 * i)))
			}
			sb.WriteString(v.Str)
		}
	}
	return sb.String()
}
