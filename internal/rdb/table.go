package rdb

import (
	"fmt"
	"sync"
)

// Table is a heap table: rows live in a slice and are addressed by stable
// row IDs (slot positions). Deleted slots are tombstoned (nil row) and
// reused by later inserts. Secondary indexes map keys to row IDs.
//
// A stored row is never written in place. Insert stores its own copy of the
// caller's row, and Update swaps a new row into the slot only after it has
// removed the old row's index entries and inserted the new row's. Index
// entries, Scan, Index.ScanRange and snapshots therefore share the stored
// rows instead of copying them: a row handed out stays valid, and
// unchanged, after the table moves on.
type Table struct {
	mu      sync.RWMutex
	def     TableDef
	rows    []Row
	free    []int64
	live    int
	indexes map[string]*Index // keyed by lower-cased index name
}

func newTable(def TableDef) *Table {
	return &Table{def: def, indexes: make(map[string]*Index)}
}

// Def returns a copy of the table definition.
func (t *Table) Def() TableDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := t.def
	d.Columns = append([]ColumnDef(nil), t.def.Columns...)
	return d
}

// Name returns the table name.
func (t *Table) Name() string { return t.def.Name }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// checkUnique reports the first uniqueness violation that storing row would
// cause.
func (t *Table) checkUnique(row Row) error {
	for _, ix := range t.indexes {
		if err := ix.checkUnique(t.def.Name, row); err != nil {
			return err
		}
	}
	return nil
}

// Insert validates and stores a copy of row, maintaining all indexes. It
// returns the new row's ID. On a uniqueness violation the table is left
// unchanged.
func (t *Table) Insert(row Row) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stored, err := t.def.checkRow(row)
	if err != nil {
		return 0, err
	}
	if err := t.checkUnique(stored); err != nil {
		return 0, err
	}
	var id int64
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[id] = stored
	} else {
		id = int64(len(t.rows))
		t.rows = append(t.rows, stored)
	}
	t.live++
	for _, ix := range t.indexes {
		ix.insert(stored, id)
	}
	return id, nil
}

// Update replaces the row with the given ID by a copy of row, maintaining
// all indexes. On a uniqueness violation the row is left unchanged.
func (t *Table) Update(rowID int64, row Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rowID < 0 || rowID >= int64(len(t.rows)) || t.rows[rowID] == nil {
		return fmt.Errorf("rdb: table %s: update row %d: %w", t.def.Name, rowID, ErrNoSuchRow)
	}
	stored, err := t.def.checkRow(row)
	if err != nil {
		return err
	}
	old := t.rows[rowID]
	// Remove the old entries first so an update that keeps the key does not
	// collide with itself; on a violation put them back.
	for _, ix := range t.indexes {
		ix.remove(old, rowID)
	}
	if err := t.checkUnique(stored); err != nil {
		for _, ix := range t.indexes {
			ix.insert(old, rowID)
		}
		return err
	}
	for _, ix := range t.indexes {
		ix.insert(stored, rowID)
	}
	t.rows[rowID] = stored
	return nil
}

// Delete removes the row with the given ID and returns its former contents.
func (t *Table) Delete(rowID int64) (Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rowID < 0 || rowID >= int64(len(t.rows)) || t.rows[rowID] == nil {
		return nil, fmt.Errorf("rdb: table %s: delete row %d: %w", t.def.Name, rowID, ErrNoSuchRow)
	}
	old := t.rows[rowID]
	for _, ix := range t.indexes {
		ix.remove(old, rowID)
	}
	t.rows[rowID] = nil
	t.free = append(t.free, rowID)
	t.live--
	return old, nil
}

// Scan visits every live row in row-ID order. The visited row is the stored
// row and must not be modified; the visit function returns false to stop
// early. Scan holds the table read lock for its duration; the visit function
// must not call mutating methods of the same table.
func (t *Table) Scan(visit func(rowID int64, row Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, row := range t.rows {
		if row == nil {
			continue
		}
		if !visit(int64(id), row) {
			return
		}
	}
}

// Index returns the named index, if it exists.
func (t *Table) Index(name string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[lowerName(name)]
	return ix, ok
}

// Indexes returns all indexes of the table.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	return out
}

// createIndex builds an index over the existing rows.
func (t *Table) createIndex(def IndexDef) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[lowerName(def.Name)]; exists {
		return nil, fmt.Errorf("rdb: %w: %s", ErrIndexExists, def.Name)
	}
	colPos := make([]int, len(def.Columns))
	for i, c := range def.Columns {
		p := t.def.ColumnIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("rdb: index %s: %w: %s.%s", def.Name, ErrNoSuchColumn, t.def.Name, c)
		}
		colPos[i] = p
	}
	ix := newIndex(def, colPos)
	for id, row := range t.rows {
		if row == nil {
			continue
		}
		if err := ix.checkUnique(t.def.Name, row); err != nil {
			return nil, err
		}
		ix.insert(row, int64(id))
	}
	t.indexes[lowerName(def.Name)] = ix
	return ix, nil
}
