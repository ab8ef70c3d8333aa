package sql

import (
	"errors"
	"sort"

	"mdv/internal/rdb"
)

// errLimitReached aborts the join once LIMIT rows have been emitted.
var errLimitReached = errors.New("sql: limit reached")

// sortRow is a projected row with its ORDER BY keys.
type sortRow struct{ row, keys []rdb.Value }

// run executes a compiled SELECT plan, invoking visit with a fresh projected
// row for every result. Without ORDER BY rows stream out of the join as they
// are found and LIMIT stops the join early; with it they are collected,
// sorted (stably, ascending) and cut to LIMIT.
func (p *selectPlan) run(params []rdb.Value, visit func(row []rdb.Value) error) error {
	if p.limit == 0 {
		return nil
	}
	var seen map[string]bool
	if p.distinct {
		seen = make(map[string]bool)
	}
	var sorted []sortRow
	emitted := 0
	emit := func(env []rdb.Value) error {
		row := make([]rdb.Value, len(p.proj))
		for i, pos := range p.proj {
			row[i] = env[pos]
		}
		if seen != nil {
			k := rdb.EncodeKeyString(rdb.Key(row))
			if seen[k] {
				return nil
			}
			seen[k] = true
		}
		if len(p.orderBy) > 0 {
			keys := make([]rdb.Value, len(p.orderBy))
			for i, pos := range p.orderBy {
				keys[i] = env[pos]
			}
			sorted = append(sorted, sortRow{row, keys})
			return nil
		}
		if err := visit(row); err != nil {
			return err
		}
		if emitted++; emitted == p.limit {
			return errLimitReached
		}
		return nil
	}
	err := p.bindRel(0, make([]rdb.Value, p.sc.width()), params, emit)
	if err == errLimitReached {
		return nil
	}
	if err != nil {
		return err
	}
	sort.SliceStable(sorted, func(a, b int) bool { return rdb.CompareKeys(sorted[a].keys, sorted[b].keys) < 0 })
	if p.limit >= 0 && p.limit < len(sorted) {
		sorted = sorted[:p.limit]
	}
	for _, r := range sorted {
		if err := visit(r.row); err != nil {
			return err
		}
	}
	return nil
}

// bindRel binds relation i by visiting its access path, evaluating its
// filters, and recursing to the next relation.
func (p *selectPlan) bindRel(i int, env []rdb.Value, params []rdb.Value, emit func([]rdb.Value) error) error {
	if i == len(p.rels) {
		return emit(env)
	}
	rel := p.rels[i]
	start := rel.binding.start
	width := len(rel.binding.def.Columns)
	return rel.visit(env, params, func(_ int64, row rdb.Row) error {
		copy(env[start:start+width], row)
		if ok, err := holds(rel.filter, env, params); !ok {
			return err
		}
		return p.bindRel(i+1, env, params, emit)
	})
}

// visit calls fn with the ID and stored row of every row the relation's
// access path reaches once env binds the relations placed before it: the
// whole table, or the index entries of a point key, a prefix or a range.
// The caller re-checks the filters; fn must not modify the row. SELECT
// joins and UPDATE / DELETE reach their rows through this one loop.
func (rel *relPlan) visit(env []rdb.Value, params []rdb.Value, fn func(id int64, row rdb.Row) error) error {
	var fnErr error
	if rel.access.kind == accessFullScan {
		// Scan holds the table read lock during visits; this is safe because
		// the session serializes writer statements against readers, and
		// mutating statements materialize their scan results before touching
		// the table.
		rel.table.Scan(func(id int64, row rdb.Row) bool {
			fnErr = fn(id, row)
			return fnErr == nil
		})
		return fnErr
	}
	key, ok, err := evalKey(rel.access.keyExprs, env, params)
	if !ok {
		return err // NULL never equals anything: no matches
	}
	// A point lookup scans its full key; a prefix scan covers the equality
	// prefix; a range scan adds low/high bounds on the next index column.
	low, high := key, key
	if rel.access.kind == accessIndexRange {
		if low, ok, err = extendKey(key, rel.access.lowExpr, rdb.MinSentinel(), env, params); !ok {
			return err
		}
		if high, ok, err = extendKey(key, rel.access.highExpr, rdb.MaxSentinel(), env, params); !ok {
			return err
		}
	}
	err = rel.access.index.ScanRange(low, high, func(row rdb.Row, id int64) bool {
		fnErr = fn(id, row)
		return fnErr == nil
	})
	if err != nil {
		return err
	}
	return fnErr
}

// evalKey evaluates index key expressions. ok is false when one fails or is
// NULL.
func evalKey(exprs []cexpr, env []rdb.Value, params []rdb.Value) (rdb.Key, bool, error) {
	key := make(rdb.Key, len(exprs))
	for i, ce := range exprs {
		v, err := ce(env, params)
		if err != nil || v.IsNull() {
			return nil, false, err
		}
		key[i] = v
	}
	return key, true, nil
}

// extendKey appends one evaluated range bound to an equality prefix. An open
// bound leaves the prefix, which ScanRange treats as covering every key that
// shares it, or with no prefix becomes the sentinel. ok is false when the
// bound fails or is NULL.
func extendKey(prefix rdb.Key, bound cexpr, sentinel rdb.Value, env []rdb.Value, params []rdb.Value) (rdb.Key, bool, error) {
	if bound == nil {
		if len(prefix) == 0 {
			return rdb.Key{sentinel}, true, nil
		}
		return prefix, true, nil
	}
	v, err := bound(env, params)
	if err != nil || v.IsNull() {
		return nil, false, err
	}
	return append(prefix[:len(prefix):len(prefix)], v), true, nil
}
