package sql

import (
	"fmt"
	"sort"
	"strings"

	"mdv/internal/rdb"
)

// The planner turns a SelectStmt into a left-deep join plan. It first fixes
// the join order, then picks each relation's access path: a point index
// lookup, an index prefix/range scan, or a full scan, based on the conjuncts
// available once the preceding relations are bound.
//
// Join order is FROM order with one exception: the next relation placed is
// the first remaining one that an `=` conjunct keys on relations already
// placed (the equality an index lookup would use), falling back to the first
// remaining relation only when none is connected. A FROM list in which every
// relation is connected to those before it — every statement the MDV filter
// issues — therefore plans exactly as written, while a list that names a
// relation before the tables linking it to the rest (the query language's
// translation names first the alias its most selective constant comparison
// binds, then the Cache aliases, then the other CacheStatements aliases) is
// joined outward along its links instead of across a cross product. The
// planner deliberately does not pick the relation with a constant-bound
// index itself: the filter's join-rule queries start from the delta on
// purpose, and their constant conjuncts (a rule group id, a class and
// property) select whole rule groups or a whole class extension.

// selectPlan is a fully compiled SELECT.
type selectPlan struct {
	sc   *scope
	rels []*relPlan

	proj     []int // env positions of the projected columns
	orderBy  []int // env positions of the ORDER BY keys
	distinct bool
	limit    int
}

// relPlan is one relation in join order with its access path and the filter
// conjuncts that become evaluable once it is bound.
type relPlan struct {
	binding relBinding
	table   *rdb.Table

	access accessPath
	filter []cexpr
}

type accessKind uint8

const (
	accessFullScan accessKind = iota
	accessIndexPoint
	accessIndexPrefix
	accessIndexRange
)

type accessPath struct {
	kind  accessKind
	index *rdb.Index
	// keyExprs computes the lookup key (point/prefix) from the already-bound
	// environment and parameters. For range access it is the equality prefix
	// (possibly empty) preceding the ranged column.
	keyExprs []cexpr
	// Range bounds on the index column immediately after the keyExprs prefix
	// (range access only); nil bound means open. Exclusive bounds are
	// enforced by the residual filter.
	lowExpr, highExpr cexpr
}

// conjunct is one AND-term of the WHERE clause with its relation footprint.
type conjunct struct {
	expr Expr
	rels uint64 // bit i set: references the i-th FROM relation
	used bool   // consumed as an index key equality or a filter
}

// buildSelectPlan compiles a SELECT against the database catalog.
func buildSelectPlan(db *rdb.Database, st *SelectStmt) (*selectPlan, error) {
	if len(st.From) > 64 {
		return nil, fmt.Errorf("sql: more than 64 relations in FROM")
	}
	p := &selectPlan{sc: &scope{}, limit: st.Limit, distinct: st.Distinct}

	// Bind relations in FROM order: env positions and * expansion follow it
	// whatever the join order.
	seen := map[string]bool{}
	from := make([]*relPlan, 0, len(st.From))
	for _, ref := range st.From {
		t, err := db.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		alias := strings.ToLower(ref.Alias)
		if seen[alias] {
			return nil, fmt.Errorf("sql: duplicate table alias %q", ref.Alias)
		}
		seen[alias] = true
		rb := relBinding{alias: ref.Alias, def: t.Def(), start: p.sc.width()}
		p.sc.rels = append(p.sc.rels, rb)
		from = append(from, &relPlan{binding: rb, table: t})
	}

	conjuncts := make([]*conjunct, len(st.Where))
	for i, c := range st.Where {
		conjuncts[i] = &conjunct{expr: c}
		if err := p.footprint(c, conjuncts[i]); err != nil {
			return nil, err
		}
	}

	// Place relations in join order; as each is placed, pick its access path
	// and attach the filters that just became evaluable.
	var placed uint64
	for range from {
		ri := p.nextRel(placed, conjuncts)
		placed |= 1 << ri
		rel := from[ri]
		p.rels = append(p.rels, rel)
		if err := p.planAccess(ri, rel, placed, conjuncts); err != nil {
			return nil, err
		}
		for _, cj := range conjuncts {
			if cj.used || cj.rels&^placed != 0 {
				continue
			}
			ce, err := compileExpr(cj.expr, p.sc)
			if err != nil {
				return nil, err
			}
			rel.filter = append(rel.filter, ce)
			cj.used = true
		}
	}

	// Projection (* is every column in FROM order) and ORDER BY keys.
	var err error
	if st.Items == nil {
		for pos := 0; pos < p.sc.width(); pos++ {
			p.proj = append(p.proj, pos)
		}
	} else if p.proj, err = p.sc.resolveAll(st.Items); err != nil {
		return nil, err
	}
	if p.orderBy, err = p.sc.resolveAll(st.OrderBy); err != nil {
		return nil, err
	}
	return p, nil
}

// footprint records which relations an expression references.
func (p *selectPlan) footprint(e Expr, cj *conjunct) error {
	switch ex := e.(type) {
	case *ColumnRef:
		pos, err := p.sc.resolve(ex)
		if err != nil {
			return err
		}
		cj.rels |= 1 << p.relIndexOf(pos)
	case *BinaryExpr:
		if err := p.footprint(ex.Left, cj); err != nil {
			return err
		}
		return p.footprint(ex.Right, cj)
	case *CastExpr:
		return p.footprint(ex.X, cj)
	}
	return nil
}

// relIndexOf maps an env position to the FROM index of its relation.
func (p *selectPlan) relIndexOf(pos int) int {
	for i := len(p.sc.rels) - 1; i >= 0; i-- {
		if pos >= p.sc.rels[i].start {
			return i
		}
	}
	return 0
}

// nextRel returns the FROM index of the relation to join next: the first
// unplaced one that an `=` conjunct keys on relations already placed, or the
// first unplaced one when none is.
func (p *selectPlan) nextRel(placed uint64, conjuncts []*conjunct) int {
	if placed == 0 {
		return 0 // nothing is placed yet for a conjunct to key on
	}
	first := -1
	for ri := range p.sc.rels {
		if placed&(1<<ri) != 0 {
			continue
		}
		if first < 0 {
			first = ri
		}
		connected := false
		for _, cj := range conjuncts {
			p.keyTerms(cj, ri, placed, func(_ int, op string, _ Expr, joined bool) {
				connected = connected || (op == "=" && joined)
			})
			if connected {
				return ri
			}
		}
	}
	return first
}

// keyTerms calls fn for each orientation of a comparison conjunct that puts
// a bare column of relation ri on one side and, on the other, an expression
// over constants and placed relations other than ri: the terms an index on
// ri can be keyed or bounded by once the placed relations are bound. joined
// reports whether that expression references a relation rather than only
// constants.
func (p *selectPlan) keyTerms(cj *conjunct, ri int, placed uint64, fn func(colIdx int, op string, value Expr, joined bool)) {
	be, ok := cj.expr.(*BinaryExpr)
	if !ok || cj.rels&(1<<ri) == 0 {
		return
	}
	extract := func(colSide, valSide Expr, op string) {
		cr, ok := colSide.(*ColumnRef)
		if !ok {
			return
		}
		pos, err := p.sc.resolve(cr)
		if err != nil || p.relIndexOf(pos) != ri {
			return
		}
		probe := &conjunct{}
		if err := p.footprint(valSide, probe); err != nil || probe.rels&(1<<ri) != 0 || probe.rels&^placed != 0 {
			return
		}
		fn(pos-p.sc.rels[ri].start, op, valSide, probe.rels != 0)
	}
	switch be.Op {
	case "=":
		extract(be.Left, be.Right, "=")
		extract(be.Right, be.Left, "=")
	case "<", "<=", ">", ">=":
		extract(be.Left, be.Right, be.Op)
		extract(be.Right, be.Left, flipOp(be.Op))
	}
}

// eqCandidate is an equality conjunct usable as an index key component for
// a relation: a column of the relation on one side, an expression over
// constants and relations placed before it on the other.
type eqCandidate struct {
	colIdx int // column index within the relation
	value  Expr
	cj     *conjunct
}

type rangeCandidate struct {
	colIdx int
	op     string // < <= > >=
	value  Expr
	cj     *conjunct
}

// planAccess selects the access path for rel, FROM index ri, which has just
// been placed.
func (p *selectPlan) planAccess(ri int, rel *relPlan, placed uint64, conjuncts []*conjunct) error {
	var eqs []eqCandidate
	var ranges []rangeCandidate
	for _, cj := range conjuncts {
		p.keyTerms(cj, ri, placed, func(colIdx int, op string, value Expr, _ bool) {
			if op == "=" {
				eqs = append(eqs, eqCandidate{colIdx: colIdx, value: value, cj: cj})
			} else {
				ranges = append(ranges, rangeCandidate{colIdx: colIdx, op: op, value: value, cj: cj})
			}
		})
	}

	// Choose the index covering the longest equality prefix. Ties prefer a
	// full-key point lookup, then an index whose next column carries a range
	// bound (prefix + range beats a plain prefix scan), then a unique index.
	type choice struct {
		index   *rdb.Index
		covered []eqCandidate // one per covered prefix column
		point   bool
		ranged  bool
	}
	better := func(c, b *choice) bool {
		if len(c.covered) != len(b.covered) {
			return len(c.covered) > len(b.covered)
		}
		if c.point != b.point {
			return c.point
		}
		if c.ranged != b.ranged {
			return c.ranged
		}
		return c.index.Def.Unique && !b.index.Def.Unique
	}
	var best *choice
	indexes := rel.table.Indexes()
	// Deterministic order: by name.
	sort.Slice(indexes, func(a, b int) bool { return indexes[a].Def.Name < indexes[b].Def.Name })
	for _, ix := range indexes {
		cols := ix.ColumnPositions()
		var covered []eqCandidate
		for _, cp := range cols {
			found := false
			for _, eq := range eqs {
				if eq.colIdx == cp {
					covered = append(covered, eq)
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
		if len(covered) == 0 {
			continue
		}
		point := len(covered) == len(cols)
		c := &choice{index: ix, covered: covered, point: point}
		if !point {
			c.ranged = hasRangeOn(ranges, cols[len(covered)])
		}
		if best == nil || better(c, best) {
			best = c
		}
	}
	if best != nil {
		keyExprs := make([]cexpr, len(best.covered))
		for k, eq := range best.covered {
			ce, err := compileExpr(eq.value, p.sc)
			if err != nil {
				return err
			}
			keyExprs[k] = ce
			eq.cj.used = true
		}
		ap := accessPath{kind: accessIndexPoint, index: best.index, keyExprs: keyExprs}
		if !best.point {
			ap.kind = accessIndexPrefix
			// The index narrows further with range bounds on the column
			// right after the equality prefix. The range conjuncts
			// stay in the filter list (bounds are applied inclusively;
			// exclusivity and NULL semantics are re-checked).
			if best.ranged {
				low, high, err := p.rangeBoundExprs(ranges, best.index.ColumnPositions()[len(best.covered)])
				if err != nil {
					return err
				}
				ap.kind = accessIndexRange
				ap.lowExpr, ap.highExpr = low, high
			}
		}
		rel.access = ap
		return nil
	}

	// Fall back to a range scan on an index whose first column has a range
	// conjunct. The conjunct stays in the filter list (bounds are applied
	// inclusively; exclusivity and NULL semantics are re-checked).
	for _, ix := range indexes {
		first := ix.ColumnPositions()[0]
		if !hasRangeOn(ranges, first) {
			continue
		}
		low, high, err := p.rangeBoundExprs(ranges, first)
		if err != nil {
			return err
		}
		rel.access = accessPath{kind: accessIndexRange, index: ix, lowExpr: low, highExpr: high}
		return nil
	}

	rel.access = accessPath{kind: accessFullScan}
	return nil
}

// hasRangeOn reports whether any range conjunct bounds the given column.
func hasRangeOn(ranges []rangeCandidate, colIdx int) bool {
	for _, rc := range ranges {
		if rc.colIdx == colIdx {
			return true
		}
	}
	return false
}

// rangeBoundExprs compiles the low/high bound expressions available for one
// index column from the range candidates. A nil result means that end is
// open.
func (p *selectPlan) rangeBoundExprs(ranges []rangeCandidate, colIdx int) (low, high cexpr, err error) {
	var lowE, highE Expr
	for _, rc := range ranges {
		if rc.colIdx != colIdx {
			continue
		}
		switch rc.op {
		case ">", ">=":
			if lowE == nil {
				lowE = rc.value
			}
		case "<", "<=":
			if highE == nil {
				highE = rc.value
			}
		}
	}
	if lowE != nil {
		if low, err = compileExpr(lowE, p.sc); err != nil {
			return nil, nil, err
		}
	}
	if highE != nil {
		if high, err = compileExpr(highE, p.sc); err != nil {
			return nil, nil, err
		}
	}
	return low, high, nil
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}
