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
	return d.exec(st, func() (any, error) { return d.compile(st) }, params)
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

// compile builds the plan of a SELECT (*selectPlan), an INSERT
// (*insertPlan), or an UPDATE or DELETE (*dmlPlan). DDL has no plan.
func (d *DB) compile(st Statement) (any, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return buildSelectPlan(d.raw, s)
	case *InsertStmt:
		return d.planInsert(s)
	case *UpdateStmt:
		return d.planDML(s.Table, s.Set, s.Where)
	case *DeleteStmt:
		return d.planDML(s.Table, nil, s.Where)
	}
	return nil, nil
}

// exec executes a parsed DDL or DML statement under the exclusive statement
// lock; plan supplies a DML statement's compiled plan.
func (d *DB) exec(st Statement, plan func() (any, error), params []rdb.Value) (int, error) {
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
	if op != opDDL {
		p, err := plan()
		if err != nil {
			return 0, err
		}
		if ins, ok := p.(*insertPlan); ok {
			if err := ins.insert(params); err != nil {
				return 0, err
			}
			return 1, nil
		}
		dml := p.(*dmlPlan)
		d.observeAccess(dml.rel)
		return dml.run(params)
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

// dmlPlan is an UPDATE or DELETE compiled as a one-relation SELECT plan, so
// it reaches its rows through the planner's access path. sets is nil for a
// DELETE.
type dmlPlan struct {
	rel  *relPlan
	sets []setOp
}

// setOp is one compiled SET assignment: the row position and its new value.
type setOp struct {
	col int
	val cexpr
}

// planDML compiles an UPDATE of table, or a DELETE when set is nil.
func (d *DB) planDML(table string, set []SetClause, where []Expr) (*dmlPlan, error) {
	sel, err := buildSelectPlan(d.raw, &SelectStmt{From: []TableRef{{Table: table, Alias: table}}, Where: where, Limit: -1})
	if err != nil {
		return nil, err
	}
	p := &dmlPlan{rel: sel.rels[0]}
	for _, sc := range set {
		op := setOp{col: p.rel.binding.def.ColumnIndex(sc.Column)}
		if op.col < 0 {
			return nil, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, table, sc.Column)
		}
		if op.val, err = compileExpr(sc.Value, sel.sc); err != nil {
			return nil, err
		}
		p.sets = append(p.sets, op)
	}
	return p, nil
}

// run materializes the IDs of the matching rows, and for an UPDATE their new
// contents, then applies them: the table is not touched while its rows are
// visited.
func (p *dmlPlan) run(params []rdb.Value) (int, error) {
	type pending struct {
		id  int64
		row rdb.Row
	}
	var todo []pending
	// The plan's one relation starts the env: its key expressions read none
	// of it, and its filters and SET values read the row itself.
	err := p.rel.visit(nil, params, func(id int64, row rdb.Row) error {
		if ok, err := holds(p.rel.filter, row, params); !ok {
			return err
		}
		if p.sets == nil {
			todo = append(todo, pending{id: id})
			return nil
		}
		newRow := row.Clone()
		for _, op := range p.sets {
			v, err := op.val(row, params)
			if err != nil {
				return err
			}
			newRow[op.col] = v
		}
		todo = append(todo, pending{id, newRow})
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, u := range todo {
		if p.sets == nil {
			_, err = p.rel.table.Delete(u.id)
		} else {
			err = p.rel.table.Update(u.id, u.row)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(todo), nil
}

// Stmt is a prepared statement: the parse tree is cached, and so is the
// compiled plan of a SELECT, INSERT, UPDATE or DELETE, re-validated against
// catalog changes. A Stmt is safe for concurrent use: plans are immutable
// once built and every execution allocates its own cursor state, so
// concurrent executions share the cached plan without any per-execution
// lock.
type Stmt struct {
	db  *DB
	ast Statement

	// cached is the compiled plan tagged with the catalog version it was
	// built against. Racing rebuilds after DDL are benign: the plans are
	// equivalent and the last store wins.
	cached atomic.Pointer[cachedPlan]
}

type cachedPlan struct {
	plan any // as compile returns it
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

// plan returns the statement's cached plan, rebuilding it if DDL has run
// since it was compiled.
func (s *Stmt) plan() (any, error) {
	ver := s.db.planVersion.Load()
	if c := s.cached.Load(); c != nil && c.ver == ver {
		s.db.observePlanCache(true)
		return c.plan, nil
	}
	s.db.observePlanCache(false)
	plan, err := s.db.compile(s.ast)
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
	return s.querySelect(false, params, visit)
}

// querySelect runs a prepared SELECT with its cached plan; held says the
// caller holds the shared statement lock already (a ReadTxn).
func (s *Stmt) querySelect(held bool, params []rdb.Value, visit func(row []rdb.Value) error) error {
	if _, ok := s.ast.(*SelectStmt); !ok {
		return errNotSelect
	}
	return s.db.runSelect(func() (*selectPlan, error) {
		p, err := s.plan()
		if err != nil {
			return nil, err
		}
		return p.(*selectPlan), nil
	}, held, params, visit)
}

// Exec executes a prepared DDL or DML statement.
func (s *Stmt) Exec(params ...rdb.Value) (int, error) { return s.db.exec(s.ast, s.plan, params) }

// ExecBatch executes a prepared INSERT once per parameter row, acquiring the
// writer lock and fetching the cached plan a single time for the whole
// batch. The filter engine loads its per-run scratch (the atoms and each
// fixpoint pass's delta) through this: row-at-a-time Exec pays one exclusive
// lock round trip per row, which dominates the load cost of large publish
// batches. Rows inserted before a failing row stay inserted — the same
// contract as issuing the inserts one by one.
func (s *Stmt) ExecBatch(paramRows [][]rdb.Value) (int, error) {
	if _, ok := s.ast.(*InsertStmt); !ok {
		return 0, fmt.Errorf("sql: ExecBatch requires an INSERT statement")
	}
	if len(paramRows) == 0 {
		return 0, nil
	}
	defer s.db.observeExec(opInsert, time.Now())
	s.db.stmtMu.Lock()
	defer s.db.stmtMu.Unlock()
	p, err := s.plan()
	if err != nil {
		return 0, err
	}
	ins := p.(*insertPlan)
	for n, params := range paramRows {
		if err := ins.insert(params); err != nil {
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

// QueryStmt executes a prepared SELECT of the transaction's database inside
// the transaction, with the statement's cached plan.
func (t *ReadTxn) QueryStmt(s *Stmt, params []rdb.Value, visit func(row []rdb.Value) error) error {
	if s.db != t.db {
		return fmt.Errorf("sql: statement prepared on another database")
	}
	return s.querySelect(true, params, visit)
}
