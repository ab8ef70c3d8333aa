package sql

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/rdb"
)

// DB wraps an rdb.Database with a SQL interface. Statements are serialized
// at statement granularity: reader statements (SELECT) run concurrently
// under the shared statement lock, writer statements (DDL and DML) run
// exclusively. This, together with the materialize-before-mutate execution
// of DML, makes every statement deadlock-free and atomic with respect to
// other statements. Compiled SELECT plans are immutable and allocate all
// cursor state per execution, so any number of goroutines may run the same
// prepared statement concurrently; multi-statement read consistency is
// available through BeginRead/View.
type DB struct {
	raw *rdb.Database
	// stmtMu gives readers shared and writers exclusive access per statement.
	stmtMu sync.RWMutex
	// planVersion invalidates cached prepared-statement plans after DDL.
	planVersion atomic.Uint64
	// met is the optional instrument bundle (see EnableMetrics); nil until
	// metrics are enabled, making the disabled path one atomic load.
	met atomic.Pointer[dbMetrics]
}

// NewDB wraps an existing engine database.
func NewDB(raw *rdb.Database) *DB { return &DB{raw: raw} }

// Open creates a new, empty SQL database.
func Open() *DB { return NewDB(rdb.NewDatabase()) }

// Raw exposes the underlying engine database (for persistence and direct
// table access).
func (d *DB) Raw() *rdb.Database { return d.raw }

// Rows is a fully materialized query result.
type Rows struct {
	Data [][]rdb.Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Empty reports whether the result has no rows.
func (r *Rows) Empty() bool { return len(r.Data) == 0 }

// collect runs a streaming query and materializes its rows.
func collect(query func(visit func(row []rdb.Value) error) error) (*Rows, error) {
	rows := &Rows{}
	err := query(func(row []rdb.Value) error {
		rows.Data = append(rows.Data, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

var errNotSelect = errors.New("sql: statement is not a SELECT")

// parseSelect parses a statement that must be a SELECT.
func parseSelect(query string) (*SelectStmt, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, errNotSelect
	}
	return sel, nil
}

// Exec parses and executes a DDL or DML statement, returning the number of
// affected rows (DDL returns 0).
func (d *DB) Exec(query string, params ...rdb.Value) (int, error) {
	st, err := Parse(query)
	if err != nil {
		return 0, err
	}
	return d.exec(st, params)
}

// MustExec runs Exec and panics on error. For schema bootstrap code.
func (d *DB) MustExec(query string, params ...rdb.Value) int {
	n, err := d.Exec(query, params...)
	if err != nil {
		panic(fmt.Sprintf("sql: MustExec(%q): %v", query, err))
	}
	return n
}

// Query parses and executes a SELECT, materializing all rows.
func (d *DB) Query(query string, params ...rdb.Value) (*Rows, error) {
	return collect(func(visit func([]rdb.Value) error) error { return d.QueryFunc(query, params, visit) })
}

// QueryFunc parses and executes a SELECT, streaming each row to visit. The
// row slice is owned by the callback (a fresh slice per row).
func (d *DB) QueryFunc(query string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	sel, err := parseSelect(query)
	if err != nil {
		return err
	}
	return d.runSelect(func() (*selectPlan, error) { return buildSelectPlan(d.raw, sel) }, false, params, visit)
}

// runSelect gets a SELECT's plan and runs it under the shared statement
// lock, unless the caller (a ReadTxn) already holds that lock.
func (d *DB) runSelect(plan func() (*selectPlan, error), held bool, params []rdb.Value, visit func([]rdb.Value) error) error {
	t0 := time.Now()
	p, err := plan()
	if err != nil {
		return err
	}
	defer d.observeSelect(p, t0)
	if !held {
		d.stmtMu.RLock()
		defer d.stmtMu.RUnlock()
	}
	return p.run(params, visit)
}

// exec executes a parsed DDL or DML statement under the exclusive statement
// lock.
func (d *DB) exec(st Statement, params []rdb.Value) (int, error) {
	op := opDDL
	switch st.(type) {
	case *SelectStmt:
		return 0, fmt.Errorf("sql: a SELECT must be run with Query")
	case *InsertStmt:
		op = opInsert
	case *UpdateStmt:
		op = opUpdate
	case *DeleteStmt:
		op = opDelete
	}
	defer d.observeExec(op, time.Now())
	d.stmtMu.Lock()
	defer d.stmtMu.Unlock()
	switch s := st.(type) {
	case *InsertStmt:
		ins, err := d.planInsert(s)
		if err == nil {
			err = ins.insert(params)
		}
		if err != nil {
			return 0, err
		}
		return 1, nil
	case *UpdateStmt:
		return d.execUpdate(s, params)
	case *DeleteStmt:
		return d.execDelete(s, params)
	}
	defer d.planVersion.Add(1) // DDL invalidates cached plans
	var err error
	switch s := st.(type) {
	case *CreateTableStmt:
		_, err = d.raw.CreateTable(s.Def)
	case *CreateIndexStmt:
		_, err = d.raw.CreateIndex(s.Def)
	case *DropTableStmt:
		if err = d.raw.DropTable(s.Name); s.IfExists && errors.Is(err, rdb.ErrNoSuchTable) {
			err = nil
		}
	}
	return 0, err
}

// insertPlan is an INSERT compiled against its table: the row position and
// compiled value of each listed column.
type insertPlan struct {
	table  *rdb.Table
	width  int
	colPos []int
	values []cexpr
}

func (d *DB) planInsert(s *InsertStmt) (*insertPlan, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return nil, err
	}
	def := t.Def()
	ip := &insertPlan{table: t, width: len(def.Columns), colPos: make([]int, 0, len(def.Columns))}
	if s.Columns == nil {
		for i := range def.Columns {
			ip.colPos = append(ip.colPos, i)
		}
	}
	for _, c := range s.Columns {
		ci := def.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, s.Table, c)
		}
		ip.colPos = append(ip.colPos, ci)
	}
	if len(s.values) != len(ip.colPos) {
		return nil, fmt.Errorf("sql: INSERT into %s: %d values for %d columns", s.Table, len(s.values), len(ip.colPos))
	}
	if ip.values, err = compileAll(s.values, &scope{}); err != nil {
		return nil, err
	}
	return ip, nil
}

// insert evaluates the values against params and inserts the row; columns
// the statement does not list are NULL (the zero Value).
func (ip *insertPlan) insert(params []rdb.Value) error {
	row := make(rdb.Row, ip.width)
	for i, ce := range ip.values {
		v, err := ce(nil, params)
		if err != nil {
			return err
		}
		row[ip.colPos[i]] = v
	}
	_, err := ip.table.Insert(row)
	return err
}

// scanCandidates visits the rows a WHERE clause could match. Like the SELECT
// planner's planAccess, it picks the index whose longest column prefix the
// clause binds by `=` to constants or parameters: a full key is a point
// lookup, a shorter prefix a range scan of an ordered index; with no such
// index it scans the table. The WHERE clause itself is always re-evaluated by
// the caller, so the index is purely an access-path optimization — without
// it, UPDATE and DELETE on large catalog tables (e.g. the per-rule refcount
// updates during rule-base registration) degrade to O(table) per statement,
// and with only a one-column prefix the per-match
// `DELETE FROM RuleResults WHERE rule_id = ? AND uri_reference = ?` walks
// every result of the rule.
func scanCandidates(t *rdb.Table, def rdb.TableDef, where []Expr, params []rdb.Value,
	visit func(id int64, row rdb.Row) bool) {
	bound := map[int]rdb.Value{} // column position → the value `=` binds it to
	for _, conj := range where {
		be, ok := conj.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		colSide, valSide := be.Left, be.Right
		if _, ok := colSide.(*ColumnRef); !ok {
			colSide, valSide = be.Right, be.Left
		}
		cr, ok := colSide.(*ColumnRef)
		if !ok {
			continue
		}
		ci := def.ColumnIndex(cr.Column)
		if _, dup := bound[ci]; ci < 0 || dup {
			continue
		}
		switch v := valSide.(type) {
		case *Literal:
			bound[ci] = v.Value
		case *Param:
			if v.Ordinal < len(params) {
				bound[ci] = params[v.Ordinal]
			}
		}
	}

	// Longest bound prefix wins; ties prefer a full key, then a unique
	// index, then the lower name, so the choice never depends on map order.
	type choice struct {
		index *rdb.Index
		key   rdb.Key
		point bool
	}
	better := func(c, b *choice) bool {
		if len(c.key) != len(b.key) {
			return len(c.key) > len(b.key)
		}
		if c.point != b.point {
			return c.point
		}
		if c.index.Def.Unique != b.index.Def.Unique {
			return c.index.Def.Unique
		}
		return c.index.Def.Name < b.index.Def.Name
	}
	var best *choice
	for _, ix := range t.Indexes() {
		cols := ix.ColumnPositions()
		c := &choice{index: ix}
		for _, cp := range cols {
			v, ok := bound[cp]
			if !ok {
				break
			}
			c.key = append(c.key, v)
		}
		c.point = len(c.key) == len(cols)
		if len(c.key) == 0 || (!c.point && !ix.Ordered()) {
			continue // a hash index needs the full key
		}
		if best == nil || better(c, best) {
			best = c
		}
	}
	switch {
	case best == nil:
		t.Scan(visit)
	case !best.index.Ordered():
		for _, id := range best.index.Lookup(best.key) {
			if row, ok := t.Get(id); ok && !visit(id, row) {
				return
			}
		}
	default:
		// A full key scans exactly its point; a shorter one its prefix.
		best.index.ScanRange(best.key, best.key, func(row rdb.Row, id int64) bool {
			return visit(id, row)
		})
	}
}

// scanWhere visits, through scanCandidates, the rows of t that satisfy
// every WHERE condition. visit runs inside the scan and must not mutate t.
func scanWhere(t *rdb.Table, sc *scope, where []Expr, params []rdb.Value, visit func(id int64, row rdb.Row) error) error {
	conds, err := compileAll(where, sc)
	if err != nil {
		return err
	}
	scanCandidates(t, sc.rels[0].def, where, params, func(id int64, row rdb.Row) bool {
		var ok bool
		if ok, err = holds(conds, row, params); ok {
			err = visit(id, row)
		}
		return err == nil
	})
	return err
}

// execUpdate materializes the IDs and new contents of the matching rows,
// then applies the updates.
func (d *DB) execUpdate(s *UpdateStmt, params []rdb.Value) (int, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return 0, err
	}
	sc := &scope{rels: []relBinding{{alias: s.Table, def: t.Def()}}}
	type setOp struct {
		col int
		val cexpr
	}
	sets := make([]setOp, len(s.Set))
	for i, set := range s.Set {
		if sets[i].col = sc.rels[0].def.ColumnIndex(set.Column); sets[i].col < 0 {
			return 0, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, s.Table, set.Column)
		}
		if sets[i].val, err = compileExpr(set.Value, sc); err != nil {
			return 0, err
		}
	}
	type pending struct {
		id  int64
		row rdb.Row
	}
	var updates []pending
	err = scanWhere(t, sc, s.Where, params, func(id int64, row rdb.Row) error {
		newRow := row.Clone()
		for _, op := range sets {
			v, err := op.val(row, params)
			if err != nil {
				return err
			}
			newRow[op.col] = v
		}
		updates = append(updates, pending{id, newRow})
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, u := range updates {
		if err := t.Update(u.id, u.row); err != nil {
			return 0, err
		}
	}
	return len(updates), nil
}

// execDelete materializes the IDs of the matching rows, then deletes them.
func (d *DB) execDelete(s *DeleteStmt, params []rdb.Value) (int, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return 0, err
	}
	sc := &scope{rels: []relBinding{{alias: s.Table, def: t.Def()}}}
	var ids []int64
	err = scanWhere(t, sc, s.Where, params, func(id int64, _ rdb.Row) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		if _, err := t.Delete(id); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}

// Stmt is a prepared statement: the parse tree is cached, and for SELECTs
// the compiled plan is cached too and re-validated against catalog changes.
// A Stmt is safe for concurrent use: plans are immutable once built and
// every execution allocates its own cursor state, so concurrent Query /
// QueryFunc calls share the cached plan without any per-execution lock.
type Stmt struct {
	db  *DB
	ast Statement

	// cached is the compiled SELECT plan tagged with the catalog version
	// it was built against. Racing rebuilds after DDL are benign: the
	// plans are equivalent and the last store wins.
	cached atomic.Pointer[cachedPlan]
}

type cachedPlan struct {
	plan *selectPlan
	ver  uint64
}

// Prepare parses a statement for repeated execution.
func (d *DB) Prepare(query string) (*Stmt, error) {
	ast, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: d, ast: ast}, nil
}

// MustPrepare is Prepare, panicking on parse errors. Intended for statically
// known statements (the MDV filter's fixed query set).
func (d *DB) MustPrepare(query string) *Stmt {
	st, err := d.Prepare(query)
	if err != nil {
		panic(err)
	}
	return st
}

// selectPlanFor returns a cached plan for the prepared SELECT, rebuilding it
// if DDL has run since it was compiled.
func (s *Stmt) selectPlanFor(sel *SelectStmt) (*selectPlan, error) {
	ver := s.db.planVersion.Load()
	if c := s.cached.Load(); c != nil && c.ver == ver {
		s.db.observePlanCache(true)
		return c.plan, nil
	}
	s.db.observePlanCache(false)
	plan, err := buildSelectPlan(s.db.raw, sel)
	if err != nil {
		return nil, err
	}
	s.cached.Store(&cachedPlan{plan: plan, ver: ver})
	return plan, nil
}

// Query executes a prepared SELECT.
func (s *Stmt) Query(params ...rdb.Value) (*Rows, error) {
	return collect(func(visit func([]rdb.Value) error) error { return s.QueryFunc(params, visit) })
}

// QueryFunc executes a prepared SELECT, streaming rows to visit.
func (s *Stmt) QueryFunc(params []rdb.Value, visit func(row []rdb.Value) error) error {
	sel, ok := s.ast.(*SelectStmt)
	if !ok {
		return errNotSelect
	}
	return s.db.runSelect(func() (*selectPlan, error) { return s.selectPlanFor(sel) }, false, params, visit)
}

// Exec executes a prepared DDL or DML statement.
func (s *Stmt) Exec(params ...rdb.Value) (int, error) { return s.db.exec(s.ast, params) }

// ExecBatch executes a prepared INSERT once per parameter row, acquiring the
// writer lock and compiling the value expressions a single time for the
// whole batch. The filter engine loads its per-run scratch (the atoms and
// each fixpoint pass's delta) through this: row-at-a-time Exec pays one
// exclusive lock round trip plus one expression compilation per row, which
// dominates the load cost of large publish batches. Rows inserted before a failing row stay inserted — the
// same contract as issuing the inserts one by one.
func (s *Stmt) ExecBatch(paramRows [][]rdb.Value) (int, error) {
	ins, ok := s.ast.(*InsertStmt)
	if !ok {
		return 0, fmt.Errorf("sql: ExecBatch requires an INSERT statement")
	}
	if len(paramRows) == 0 {
		return 0, nil
	}
	defer s.db.observeExec(opInsert, time.Now())
	s.db.stmtMu.Lock()
	defer s.db.stmtMu.Unlock()
	ip, err := s.db.planInsert(ins)
	if err != nil {
		return 0, err
	}
	for n, params := range paramRows {
		if err := ip.insert(params); err != nil {
			return n, err
		}
	}
	return len(paramRows), nil
}

// ReadTxn is a multi-statement read-only view of the database: it holds the
// shared statement lock for its whole lifetime, so no writer statement (DML
// or DDL) interleaves between its queries, while other readers — including
// other ReadTxns — proceed concurrently. Obtain one with BeginRead and
// release it with End (or use View). The owning goroutine must not run
// writer statements, nor plain DB/Stmt query methods (they would re-acquire
// the read lock and can deadlock behind a waiting writer), between
// BeginRead and End; use the ReadTxn's own methods instead.
type ReadTxn struct {
	db   *DB
	done bool
}

// BeginRead opens a read-only transaction, blocking until no writer
// statement is running.
func (d *DB) BeginRead() *ReadTxn {
	d.stmtMu.RLock()
	return &ReadTxn{db: d}
}

// End releases the transaction's shared lock. Safe to call twice.
func (t *ReadTxn) End() {
	if t.done {
		return
	}
	t.done = true
	t.db.stmtMu.RUnlock()
}

// View runs fn inside a read transaction: every query fn issues through the
// transaction sees the same writer-free snapshot of the database.
func (d *DB) View(fn func(*ReadTxn) error) error {
	t := d.BeginRead()
	defer t.End()
	return fn(t)
}

// Query parses and executes a SELECT inside the transaction.
func (t *ReadTxn) Query(query string, params ...rdb.Value) (*Rows, error) {
	return collect(func(visit func([]rdb.Value) error) error { return t.QueryFunc(query, params, visit) })
}

// QueryFunc executes a SELECT inside the transaction, streaming each row to
// visit.
func (t *ReadTxn) QueryFunc(query string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	sel, err := parseSelect(query)
	if err != nil {
		return err
	}
	return t.db.runSelect(func() (*selectPlan, error) { return buildSelectPlan(t.db.raw, sel) }, true, params, visit)
}
