package rdb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDeletedRowsAreReleased is the engine's churn bound: a table that
// stored 50,000 wide rows under three B+tree indexes and then deleted them
// all holds no deleted row. Deleting in reverse row-ID order makes every
// delete vacate the last slot of its primary-key leaf, so a vacated slot
// left uncleared — by Delete or by a leaf split — keeps its row alive.
//
// The stated remainder is what the table keeps by design once it is empty:
//   - one row slot and one free-list entry per deleted row, with a quarter
//     more for append's spare capacity;
//   - the leaves, counted as if all stayed (a leaf is not merged while it
//     holds an entry): a leaf held at least half an order of entries
//     before the deletes, and its entry array has at most btreeOrder
//     slots of one row reference and one row ID (32 bytes);
//   - one separator per leaf in the inner nodes: a key copy of at most two
//     values, its row ID and a child pointer, with spare capacity, counted
//     generously at 512 bytes to absorb the runtime's own small allocations.
//
// A retained row costs its 512-byte TEXT value plus its four values, so
// keeping even a tenth of the deleted rows exceeds the remainder.
func TestDeletedRowsAreReleased(t *testing.T) {
	const (
		rows    = 50000
		width   = 512 // bytes of the unindexed TEXT column
		indexes = 3   // the primary key, grp and (name, grp)
	)
	db := NewDatabase()
	tbl := mustTable(t, db, TableDef{Name: "wide", Columns: []ColumnDef{
		{Name: "id", Type: KindInt, PrimaryKey: true},
		{Name: "grp", Type: KindInt},
		{Name: "name", Type: KindText},
		{Name: "body", Type: KindText},
	}})
	for _, def := range []IndexDef{
		{Name: "wide_grp", Table: "wide", Columns: []string{"grp"}},
		{Name: "wide_name_grp", Table: "wide", Columns: []string{"name", "grp"}},
	} {
		if _, err := db.CreateIndex(def); err != nil {
			t.Fatal(err)
		}
	}
	pad := strings.Repeat("x", width-8)
	empty := liveHeap()
	for i := 0; i < rows; i++ {
		row := Row{NewInt(int64(i)), NewInt(int64(i % 97)), NewText(fmt.Sprintf("n%d", i%1013)),
			NewText(fmt.Sprintf("%08d", i) + pad)}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	full := liveHeap()
	for id := int64(rows - 1); id >= 0; id-- {
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(tbl)

	leafCount := uint64(indexes) * (rows/(btreeOrder/2) + 1)
	slots := uint64(rows) * (24 + 8) * 5 / 4 // t.rows and t.free
	leaves := leafCount * btreeOrder * 32    // leaf entry arrays
	inner := leafCount * 512                 // separators and child pointers
	remainder := slots + leaves + inner
	kept := int64(after) - int64(empty)
	t.Logf("live heap: empty %d KiB, full %d KiB, after deletes %d KiB (kept %d KiB, stated remainder %d KiB)",
		empty>>10, full>>10, after>>10, kept>>10, remainder>>10)
	if kept > int64(remainder) {
		t.Fatalf("after deleting every row the table keeps %d KiB, more than the stated remainder of %d KiB: deleted rows are still referenced",
			kept>>10, remainder>>10)
	}
}
