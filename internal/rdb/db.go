package rdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

func lowerName(s string) string { return strings.ToLower(s) }

// Database is a catalog of tables. All catalog operations (create/drop) and
// table lookups are safe for concurrent use; row-level operations are
// synchronized per table through each Table's RWMutex, so scans of
// different goroutines run concurrently and block only on mutations of the
// same table, and a writer only ever holds one table lock. The SQL layer
// above adds statement-level read/write scheduling (sql.DB.stmtMu) and
// multi-statement read views (sql.ReadTxn) on top of these per-table locks.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable adds a new table. Primary key columns automatically receive a
// unique B+tree index named <table>_pk.
func (db *Database) CreateTable(def TableDef) (*Table, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	if _, exists := db.tables[lowerName(def.Name)]; exists {
		db.mu.Unlock()
		return nil, fmt.Errorf("rdb: %w: %s", ErrTableExists, def.Name)
	}
	t := newTable(def)
	db.tables[lowerName(def.Name)] = t
	db.mu.Unlock()

	if pk := def.PrimaryKeyColumns(); len(pk) > 0 {
		cols := make([]string, len(pk))
		for i, p := range pk {
			cols[i] = def.Columns[p].Name
		}
		_, err := t.createIndex(IndexDef{
			Name:    def.Name + "_pk",
			Table:   def.Name,
			Columns: cols,
			Unique:  true,
		})
		if err != nil {
			db.mu.Lock()
			delete(db.tables, lowerName(def.Name))
			db.mu.Unlock()
			return nil, err
		}
	}
	return t, nil
}

// DropTable removes a table and all of its indexes.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[lowerName(name)]; !ok {
		return fmt.Errorf("rdb: %w: %s", ErrNoSuchTable, name)
	}
	delete(db.tables, lowerName(name))
	return nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[lowerName(name)]
	if !ok {
		return nil, fmt.Errorf("rdb: %w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (db *Database) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[lowerName(name)]
	return ok
}

// TableNames returns the names of all tables, sorted.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.def.Name)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds a secondary index over an existing table, indexing the
// rows already present.
func (db *Database) CreateIndex(def IndexDef) (*Index, error) {
	if def.Name == "" || len(def.Columns) == 0 {
		return nil, fmt.Errorf("rdb: invalid index definition %q", def.Name)
	}
	t, err := db.Table(def.Table)
	if err != nil {
		return nil, err
	}
	return t.createIndex(def)
}
