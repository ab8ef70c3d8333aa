package sql

import "mdv/internal/rdb"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (...).
type CreateTableStmt struct {
	Def rdb.TableDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndexStmt struct {
	Def rdb.IndexDef
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	IfExists bool
	Name     string
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...).
type InsertStmt struct {
	Table   string
	Columns []string // nil means all columns in definition order
	values  []Expr   // one per listed column
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where []Expr // AND-ed conditions
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where []Expr // AND-ed conditions
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []*ColumnRef // nil means SELECT *
	From     []TableRef
	Where    []Expr // AND-ed conditions
	OrderBy  []*ColumnRef
	Limit    int // -1 when absent
}

// TableRef is one relation in the FROM clause.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is a parsed expression tree node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Value rdb.Value }

// Param is a ? placeholder; Ordinal is its zero-based position.
type Param struct{ Ordinal int }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier (alias)
	Column string
}

// BinaryExpr is a comparison or an arithmetic operation.
type BinaryExpr struct {
	Op    string // = != < <= > >= CONTAINS + -
	Left  Expr
	Right Expr
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type rdb.Kind
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*CastExpr) expr()   {}
