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
// other statements. Every statement runs by its SQL text: the DB keeps each
// text's parse and compiled plan in its statement table, so a text is
// parsed and planned once, not per call. Compiled plans are immutable and
// allocate all cursor state per execution, so any number of goroutines may
// run the same text concurrently; multi-statement read consistency is
// available through BeginRead/View.
type DB struct {
	raw *rdb.Database
	// stmtMu gives readers shared and writers exclusive access per statement.
	stmtMu sync.RWMutex
	// planVersion invalidates the statement table's plans after DDL.
	planVersion atomic.Uint64
	// table maps a SQL text to its *stmtEntry. A lookup takes no lock;
	// tableMu serializes insertions, which stop at stmtTableCap (tableLen).
	table    sync.Map
	tableMu  sync.Mutex
	tableLen int
	// met is the optional instrument bundle (see EnableMetrics); nil until
	// metrics are enabled, making the disabled path one atomic load.
	met atomic.Pointer[dbMetrics]
}

// stmtTableCap bounds the statement table. The engine and the repository
// issue fewer than a hundred texts each, but query texts come from clients
// over the wire, one per query shape; a text arriving when the table is full
// is parsed and planned for its own execution only.
const stmtTableCap = 1024

// stmtEntry is one SQL text's parse and its compiled plan, re-validated
// against catalog changes. Racing rebuilds after DDL are benign: the plans
// are equivalent and the last store wins.
type stmtEntry struct {
	ast    Statement
	cached atomic.Pointer[cachedPlan]
}

type cachedPlan struct {
	plan any // as compile returns it
	ver  uint64
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

// statement returns text's entry in the statement table, parsing it on
// first use. A text that fails to parse is not retained; past stmtTableCap a
// new text gets an entry of its own that is dropped after the call.
func (d *DB) statement(text string) (*stmtEntry, error) {
	if e, ok := d.table.Load(text); ok {
		return e.(*stmtEntry), nil
	}
	ast, err := Parse(text)
	if err != nil {
		return nil, err
	}
	e := &stmtEntry{ast: ast}
	d.tableMu.Lock()
	defer d.tableMu.Unlock()
	if d.tableLen < stmtTableCap {
		if prev, loaded := d.table.LoadOrStore(text, e); loaded {
			return prev.(*stmtEntry), nil
		}
		d.tableLen++
	}
	return e, nil
}

// plan returns the entry's compiled plan, rebuilding it if DDL has run
// since it was compiled.
func (d *DB) plan(e *stmtEntry) (any, error) {
	ver := d.planVersion.Load()
	if c := e.cached.Load(); c != nil && c.ver == ver {
		d.observePlanCache(true)
		return c.plan, nil
	}
	d.observePlanCache(false)
	plan, err := d.compile(e.ast)
	if err != nil {
		return nil, err
	}
	e.cached.Store(&cachedPlan{plan: plan, ver: ver})
	return plan, nil
}

// opOf classifies a parsed statement.
func opOf(st Statement) stmtOp {
	switch st.(type) {
	case *SelectStmt:
		return opSelect
	case *InsertStmt:
		return opInsert
	case *UpdateStmt:
		return opUpdate
	case *DeleteStmt:
		return opDelete
	}
	return opDDL
}

// Exec executes a DDL or DML statement, returning the number of affected
// rows (DDL returns 0).
func (d *DB) Exec(text string, params ...rdb.Value) (int, error) {
	e, err := d.statement(text)
	if err != nil {
		return 0, err
	}
	op := opOf(e.ast)
	if op == opSelect {
		return 0, fmt.Errorf("sql: a SELECT must be run with Query")
	}
	defer d.observeExec(op, time.Now())
	d.stmtMu.Lock()
	defer d.stmtMu.Unlock()
	if op == opDDL {
		return 0, d.execDDL(e.ast)
	}
	p, err := d.plan(e)
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

// MustExec runs Exec and panics on error. For schema bootstrap code.
func (d *DB) MustExec(text string, params ...rdb.Value) int {
	n, err := d.Exec(text, params...)
	if err != nil {
		panic(fmt.Sprintf("sql: MustExec(%q): %v", text, err))
	}
	return n
}

// ExecBatch executes an INSERT once per parameter row, acquiring the writer
// lock and fetching the plan a single time for the whole batch. The filter
// engine loads its per-run scratch (the atoms and each fixpoint pass's
// delta) through this: row-at-a-time Exec pays one exclusive lock round
// trip per row, which dominates the load cost of large publish batches.
// Rows inserted before a failing row stay inserted — the same contract as
// issuing the inserts one by one.
func (d *DB) ExecBatch(text string, paramRows [][]rdb.Value) (int, error) {
	e, err := d.statement(text)
	if err != nil {
		return 0, err
	}
	if opOf(e.ast) != opInsert {
		return 0, fmt.Errorf("sql: ExecBatch requires an INSERT statement")
	}
	if len(paramRows) == 0 {
		return 0, nil
	}
	defer d.observeExec(opInsert, time.Now())
	d.stmtMu.Lock()
	defer d.stmtMu.Unlock()
	p, err := d.plan(e)
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

// Query executes a SELECT, materializing all rows.
func (d *DB) Query(text string, params ...rdb.Value) (*Rows, error) {
	return collect(func(visit func([]rdb.Value) error) error { return d.QueryFunc(text, params, visit) })
}

// QueryFunc executes a SELECT, streaming each row to visit. The row slice
// is owned by the callback (a fresh slice per row).
func (d *DB) QueryFunc(text string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	return d.query(text, false, params, visit)
}

var errNotSelect = errors.New("sql: statement is not a SELECT")

// query runs a SELECT with its table plan under the shared statement lock,
// unless the caller (a ReadTxn) already holds that lock.
func (d *DB) query(text string, held bool, params []rdb.Value, visit func([]rdb.Value) error) error {
	t0 := time.Now()
	e, err := d.statement(text)
	if err != nil {
		return err
	}
	if opOf(e.ast) != opSelect {
		return errNotSelect
	}
	p, err := d.plan(e)
	if err != nil {
		return err
	}
	sel := p.(*selectPlan)
	defer d.observeSelect(sel, t0)
	if !held {
		d.stmtMu.RLock()
		defer d.stmtMu.RUnlock()
	}
	return sel.run(params, visit)
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

// execDDL runs a DDL statement; the caller holds the exclusive statement
// lock. Every DDL statement invalidates the table's plans.
func (d *DB) execDDL(st Statement) error {
	defer d.planVersion.Add(1)
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
	return err
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

// ReadTxn is a multi-statement read-only view of the database: it holds the
// shared statement lock for its whole lifetime, so no writer statement (DML
// or DDL) interleaves between its queries, while other readers — including
// other ReadTxns — proceed concurrently. Obtain one with BeginRead and
// release it with End (or use View). The owning goroutine must not run
// writer statements, nor plain DB query methods (they would re-acquire
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

// Query executes a SELECT inside the transaction.
func (t *ReadTxn) Query(text string, params ...rdb.Value) (*Rows, error) {
	return collect(func(visit func([]rdb.Value) error) error { return t.QueryFunc(text, params, visit) })
}

// QueryFunc executes a SELECT inside the transaction, streaming each row to
// visit. Its statement-table lookup takes no lock beyond the shared one the
// transaction holds.
func (t *ReadTxn) QueryFunc(text string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	return t.db.query(text, true, params, visit)
}
