package rdb

import "fmt"

// Index is a secondary index over a table: a B+tree mapping composite keys,
// extracted from the indexed columns of each row, to row IDs. It holds the
// stored rows themselves and reads their keys through colPos.
type Index struct {
	Def    IndexDef
	colPos []int // positions of indexed columns in the table row
	btree  *bptree
}

func newIndex(def IndexDef, colPos []int) *Index {
	return &Index{Def: def, colPos: colPos, btree: newBPTree(colPos)}
}

// keyOf extracts the index key from a full table row.
func (ix *Index) keyOf(row Row) Key {
	k := make(Key, len(ix.colPos))
	for i, p := range ix.colPos {
		k[i] = row[p]
	}
	return k
}

// checkUnique reports a uniqueness violation that inserting row would cause.
// Rows containing NULL in any key column are exempt, matching the usual SQL
// treatment of NULLs in unique indexes.
func (ix *Index) checkUnique(table string, row Row) error {
	if !ix.Def.Unique {
		return nil
	}
	key := ix.keyOf(row)
	if keyHasNull(key) {
		return nil
	}
	// A full-length bound scans exactly the entries with that key.
	dup := false
	ix.btree.ScanRange(key, key, func(Row, int64) bool {
		dup = true
		return false
	})
	if dup {
		return fmt.Errorf("rdb: table %s: unique index %s: duplicate key (%s)", table, ix.Def.Name, keyString(key))
	}
	return nil
}

// insert adds the stored row to the index, which keeps a reference to it.
// Uniqueness is the caller's check (checkUnique).
func (ix *Index) insert(row Row, rowID int64) { ix.btree.Insert(row, rowID) }

// remove deletes the (row, rowID) entry from the index.
func (ix *Index) remove(row Row, rowID int64) { ix.btree.Delete(row, rowID) }

// ScanRange visits the rows whose key satisfies low <= key <= high, in key
// order, with their row IDs. A bound shorter than the key covers every key
// that starts with it, so a full key is a point lookup; a bound may not be
// longer than the key. The visited row is the table's stored row: it must
// not be modified, and it stays valid after the table changes.
func (ix *Index) ScanRange(low, high Key, visit func(row Row, rowID int64) bool) error {
	if len(low) > len(ix.colPos) || len(high) > len(ix.colPos) {
		return fmt.Errorf("rdb: index %s: scan bound longer than its %d-column key", ix.Def.Name, len(ix.colPos))
	}
	ix.btree.ScanRange(low, high, visit)
	return nil
}

// Len returns the number of entries in the index.
func (ix *Index) Len() int { return ix.btree.Len() }

// ColumnPositions returns the table-row positions of the indexed columns.
func (ix *Index) ColumnPositions() []int { return ix.colPos }

func keyHasNull(k Key) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func keyString(k Key) string {
	s := ""
	for i, v := range k {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s
}
