package rdb

import (
	"fmt"
	"strings"
)

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name    string
	Type    Kind // KindInt, KindFloat, KindText, or KindBool
	NotNull bool
	// PrimaryKey marks the column as (part of) the primary key. Primary key
	// columns are implicitly NOT NULL and covered by a unique index.
	PrimaryKey bool
}

// TableDef describes a table: its name and ordered columns.
type TableDef struct {
	Name    string
	Columns []ColumnDef
}

// ColumnIndex returns the position of the named column, or -1. Column names
// are case-insensitive, following SQL convention.
func (d *TableDef) ColumnIndex(name string) int {
	for i := range d.Columns {
		if strings.EqualFold(d.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// PrimaryKeyColumns returns the positions of the primary key columns in
// definition order, or nil if the table has no primary key.
func (d *TableDef) PrimaryKeyColumns() []int {
	var cols []int
	for i := range d.Columns {
		if d.Columns[i].PrimaryKey {
			cols = append(cols, i)
		}
	}
	return cols
}

// Validate checks the definition for duplicate or empty column names and
// invalid column types.
func (d *TableDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("rdb: table has empty name")
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("rdb: table %s has no columns", d.Name)
	}
	seen := make(map[string]bool, len(d.Columns))
	for i := range d.Columns {
		c := &d.Columns[i]
		if c.Name == "" {
			return fmt.Errorf("rdb: table %s: column %d has empty name", d.Name, i)
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return fmt.Errorf("rdb: table %s: duplicate column %s", d.Name, c.Name)
		}
		seen[lower] = true
		switch c.Type {
		case KindInt, KindFloat, KindText, KindBool:
		default:
			return fmt.Errorf("rdb: table %s: column %s has invalid type %s", d.Name, c.Name, c.Type)
		}
	}
	return nil
}

// checkRow verifies that a row conforms to the table definition: correct
// arity, NOT NULL constraints, and value kinds assignable to column types
// (INT is accepted for FLOAT columns and widened). It returns the one copy
// of the row that the table stores, with the widening applied.
func (d *TableDef) checkRow(row Row) (Row, error) {
	if len(row) != len(d.Columns) {
		return nil, fmt.Errorf("rdb: table %s: row has %d values, want %d", d.Name, len(row), len(d.Columns))
	}
	out := row.Clone()
	for i := range d.Columns {
		c := &d.Columns[i]
		v := row[i]
		if v.IsNull() {
			if c.NotNull || c.PrimaryKey {
				return nil, fmt.Errorf("rdb: table %s: column %s is NOT NULL", d.Name, c.Name)
			}
			continue
		}
		if v.Kind == c.Type {
			continue
		}
		// Widen INT to FLOAT transparently; reject everything else to keep
		// stored data strictly typed.
		if c.Type == KindFloat && v.Kind == KindInt {
			out[i] = NewFloat(float64(v.Int))
			continue
		}
		return nil, fmt.Errorf("rdb: table %s: column %s: cannot store %s value", d.Name, c.Name, v.Kind)
	}
	return out, nil
}

// IndexDef describes a secondary index over a table.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string // indexed columns, in key order
	Unique  bool
}
