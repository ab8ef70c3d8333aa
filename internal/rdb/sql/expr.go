package sql

import (
	"fmt"
	"strings"

	"mdv/internal/rdb"
)

// scope describes the flat row environment a compiled expression runs in:
// the concatenated columns of all bound relations, in binding order.
type scope struct {
	rels []relBinding
}

type relBinding struct {
	alias string
	def   rdb.TableDef
	start int // offset of this relation's first column in the env row
}

func (sc *scope) width() int {
	if len(sc.rels) == 0 {
		return 0
	}
	last := sc.rels[len(sc.rels)-1]
	return last.start + len(last.def.Columns)
}

// resolve finds the env position of a column reference.
func (sc *scope) resolve(ref *ColumnRef) (int, error) {
	if ref.Table != "" {
		for _, rb := range sc.rels {
			if strings.EqualFold(rb.alias, ref.Table) {
				ci := rb.def.ColumnIndex(ref.Column)
				if ci < 0 {
					return 0, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, ref.Table, ref.Column)
				}
				return rb.start + ci, nil
			}
		}
		return 0, fmt.Errorf("sql: unknown table or alias %q", ref.Table)
	}
	found := -1
	for _, rb := range sc.rels {
		if ci := rb.def.ColumnIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", ref.Column)
			}
			found = rb.start + ci
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: %w: %s", rdb.ErrNoSuchColumn, ref.Column)
	}
	return found, nil
}

// resolveAll resolves a list of column references.
func (sc *scope) resolveAll(refs []*ColumnRef) ([]int, error) {
	out := make([]int, len(refs))
	for i, ref := range refs {
		pos, err := sc.resolve(ref)
		if err != nil {
			return nil, err
		}
		out[i] = pos
	}
	return out, nil
}

// cexpr is a compiled expression: evaluated against a row environment and
// the statement parameters.
type cexpr func(env []rdb.Value, params []rdb.Value) (rdb.Value, error)

// compileExpr compiles an AST expression against a scope.
func compileExpr(e Expr, sc *scope) (cexpr, error) {
	switch ex := e.(type) {
	case *Literal:
		v := ex.Value
		return func([]rdb.Value, []rdb.Value) (rdb.Value, error) { return v, nil }, nil

	case *Param:
		ord := ex.Ordinal
		return func(_ []rdb.Value, params []rdb.Value) (rdb.Value, error) {
			if ord >= len(params) {
				return rdb.Null(), fmt.Errorf("sql: missing parameter %d", ord+1)
			}
			return params[ord], nil
		}, nil

	case *ColumnRef:
		pos, err := sc.resolve(ex)
		if err != nil {
			return nil, err
		}
		return func(env []rdb.Value, _ []rdb.Value) (rdb.Value, error) {
			return env[pos], nil
		}, nil

	case *CastExpr:
		x, err := compileExpr(ex.X, sc)
		if err != nil {
			return nil, err
		}
		kind := ex.Type
		return func(env []rdb.Value, params []rdb.Value) (rdb.Value, error) {
			v, err := x(env, params)
			if err != nil {
				return rdb.Null(), err
			}
			return v.CoerceTo(kind)
		}, nil

	case *BinaryExpr:
		op, ok := binaryOps[ex.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unknown binary operator %q", ex.Op)
		}
		left, err := compileExpr(ex.Left, sc)
		if err != nil {
			return nil, err
		}
		right, err := compileExpr(ex.Right, sc)
		if err != nil {
			return nil, err
		}
		// Every operator yields NULL when either operand is NULL.
		return func(env []rdb.Value, params []rdb.Value) (rdb.Value, error) {
			lv, err := left(env, params)
			if err != nil {
				return rdb.Null(), err
			}
			rv, err := right(env, params)
			if err != nil {
				return rdb.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return rdb.Null(), nil
			}
			return op(lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

// compileAll compiles a list of expressions.
func compileAll(es []Expr, sc *scope) ([]cexpr, error) {
	out := make([]cexpr, len(es))
	for i, e := range es {
		ce, err := compileExpr(e, sc)
		if err != nil {
			return nil, err
		}
		out[i] = ce
	}
	return out, nil
}

// binaryOps evaluates each binary operator on two non-NULL operands.
var binaryOps = map[string]func(a, b rdb.Value) (rdb.Value, error){
	"=":  func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) == 0), nil },
	"!=": func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) != 0), nil },
	"<":  func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) < 0), nil },
	"<=": func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) <= 0), nil },
	">":  func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) > 0), nil },
	">=": func(a, b rdb.Value) (rdb.Value, error) { return rdb.NewBool(rdb.Compare(a, b) >= 0), nil },
	// CONTAINS matches substrings of the operands' text forms.
	"CONTAINS": func(a, b rdb.Value) (rdb.Value, error) {
		return rdb.NewBool(strings.Contains(a.String(), b.String())), nil
	},
	"+": func(a, b rdb.Value) (rdb.Value, error) { return add(a, b, 1) },
	"-": func(a, b rdb.Value) (rdb.Value, error) { return add(a, b, -1) },
}

// add returns a + sign*b: INT when both operands are INT, FLOAT otherwise.
func add(a, b rdb.Value, sign int64) (rdb.Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return rdb.Null(), fmt.Errorf("sql: arithmetic on non-numeric values (%s, %s)", a.Kind, b.Kind)
	}
	if a.Kind == rdb.KindInt && b.Kind == rdb.KindInt {
		return rdb.NewInt(a.Int + sign*b.Int), nil
	}
	return rdb.NewFloat(a.AsFloat() + float64(sign)*b.AsFloat()), nil
}

// truthy converts a condition's value to a boolean; NULL is false, so a
// comparison with NULL never selects a row.
func truthy(v rdb.Value) (bool, error) {
	switch v.Kind {
	case rdb.KindBool:
		return v.Bool, nil
	case rdb.KindInt:
		return v.Int != 0, nil
	case rdb.KindFloat:
		return v.Float != 0, nil
	case rdb.KindNull:
		return false, nil
	default:
		return false, fmt.Errorf("sql: %s value used as condition", v.Kind)
	}
}

// holds reports whether every condition is true in env.
func holds(conds []cexpr, env []rdb.Value, params []rdb.Value) (bool, error) {
	for _, c := range conds {
		v, err := c(env, params)
		if err != nil {
			return false, err
		}
		if b, err := truthy(v); err != nil || !b {
			return false, err
		}
	}
	return true, nil
}
