package rdb

import "fmt"

// Index is a secondary index over a table. It maps composite keys, extracted
// from the indexed columns of each row, to row IDs. A B+tree index holds the
// stored rows themselves and reads their keys through colPos; a hash index
// maps the encoded key to row IDs.
type Index struct {
	Def     IndexDef
	colPos  []int // positions of indexed columns in the table row
	btree   *bptree
	hash    map[string][]int64
	hashLen int
}

func newIndex(def IndexDef, colPos []int) *Index {
	idx := &Index{Def: def, colPos: colPos}
	if def.Kind == IndexHash {
		idx.hash = make(map[string][]int64)
	} else {
		idx.btree = newBPTree(colPos)
	}
	return idx
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
	if !keyHasNull(key) && len(ix.lookup(key)) > 0 {
		return fmt.Errorf("rdb: table %s: unique index %s: duplicate key (%s)", table, ix.Def.Name, keyString(key))
	}
	return nil
}

// insert adds the stored row to the index. Uniqueness is the caller's check
// (checkUnique). A B+tree index keeps a reference to row.
func (ix *Index) insert(row Row, rowID int64) {
	if ix.hash != nil {
		s := encodeKeyString(ix.keyOf(row))
		ix.hash[s] = append(ix.hash[s], rowID)
		ix.hashLen++
	} else {
		ix.btree.Insert(row, rowID)
	}
}

// remove deletes the (row, rowID) entry from the index.
func (ix *Index) remove(row Row, rowID int64) {
	if ix.hash != nil {
		s := encodeKeyString(ix.keyOf(row))
		ids := ix.hash[s]
		for i, id := range ids {
			if id == rowID {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(ix.hash, s)
		} else {
			ix.hash[s] = ids
		}
		ix.hashLen--
	} else {
		ix.btree.Delete(row, rowID)
	}
}

// lookup returns the row IDs whose key equals the given key exactly.
func (ix *Index) lookup(key Key) []int64 {
	if ix.hash != nil {
		return ix.hash[encodeKeyString(key)]
	}
	// A full-length bound scans exactly the entries with that key.
	if len(key) != len(ix.colPos) {
		return nil
	}
	var out []int64
	ix.btree.ScanRange(key, key, func(_ Row, rowID int64) bool {
		out = append(out, rowID)
		return true
	})
	return out
}

// Lookup returns the row IDs matching the key. Exported for the SQL planner.
func (ix *Index) Lookup(key Key) []int64 { return ix.lookup(key) }

// ScanRange visits the rows whose key satisfies low <= key <= high, in key
// order, with their row IDs. A bound shorter than the key covers every key
// that starts with it; a bound may not be longer than the key. The visited
// row is the table's stored row: it must not be modified, and it stays valid
// after the table changes. Only valid for B+tree indexes; hash indexes
// return ErrUnordered.
func (ix *Index) ScanRange(low, high Key, visit func(row Row, rowID int64) bool) error {
	if ix.btree == nil {
		return fmt.Errorf("rdb: index %s: %w", ix.Def.Name, ErrUnordered)
	}
	if len(low) > len(ix.colPos) || len(high) > len(ix.colPos) {
		return fmt.Errorf("rdb: index %s: scan bound longer than its %d-column key", ix.Def.Name, len(ix.colPos))
	}
	ix.btree.ScanRange(low, high, visit)
	return nil
}

// Len returns the number of entries in the index.
func (ix *Index) Len() int {
	if ix.hash != nil {
		return ix.hashLen
	}
	return ix.btree.Len()
}

// Ordered reports whether the index supports range scans.
func (ix *Index) Ordered() bool { return ix.btree != nil }

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
