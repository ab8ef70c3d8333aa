package rdb

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func testDef() TableDef {
	return TableDef{
		Name: "providers",
		Columns: []ColumnDef{
			{Name: "id", Type: KindInt, PrimaryKey: true},
			{Name: "host", Type: KindText, NotNull: true},
			{Name: "memory", Type: KindInt},
			{Name: "load", Type: KindFloat},
		},
	}
}

func mustTable(t *testing.T, db *Database, def TableDef) *Table {
	t.Helper()
	tbl, err := db.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableDefValidate(t *testing.T) {
	cases := []struct {
		name string
		def  TableDef
		ok   bool
	}{
		{"valid", testDef(), true},
		{"empty name", TableDef{Columns: []ColumnDef{{Name: "a", Type: KindInt}}}, false},
		{"no columns", TableDef{Name: "t"}, false},
		{"dup columns", TableDef{Name: "t", Columns: []ColumnDef{
			{Name: "a", Type: KindInt}, {Name: "A", Type: KindText}}}, false},
		{"bad type", TableDef{Name: "t", Columns: []ColumnDef{{Name: "a", Type: KindNull}}}, false},
		{"empty column name", TableDef{Name: "t", Columns: []ColumnDef{{Name: "", Type: KindInt}}}, false},
	}
	for _, c := range cases {
		err := c.def.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestInsertGetDelete(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	id, err := tbl.Insert(Row{NewInt(1), NewText("a.example.org"), NewInt(64), NewFloat(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := getRow(tbl, id)
	if !ok {
		t.Fatal("row not found")
	}
	if row[1].Str != "a.example.org" {
		t.Errorf("got %v", row)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	old, err := tbl.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	if old[0].Int != 1 {
		t.Errorf("Delete returned %v", old)
	}
	if _, ok := getRow(tbl, id); ok {
		t.Error("deleted row still visible")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if _, err := tbl.Delete(id); !errors.Is(err, ErrNoSuchRow) {
		t.Errorf("double delete: %v", err)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	// Wrong arity.
	if _, err := tbl.Insert(Row{NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// NOT NULL violation.
	if _, err := tbl.Insert(Row{NewInt(1), Null(), NewInt(1), Null()}); err == nil {
		t.Error("NOT NULL violation accepted")
	}
	// Primary key implicitly NOT NULL.
	if _, err := tbl.Insert(Row{Null(), NewText("h"), Null(), Null()}); err == nil {
		t.Error("NULL primary key accepted")
	}
	// Type mismatch.
	if _, err := tbl.Insert(Row{NewText("x"), NewText("h"), Null(), Null()}); err == nil {
		t.Error("TEXT into INT accepted")
	}
	// INT widens into FLOAT column.
	id, err := tbl.Insert(Row{NewInt(1), NewText("h"), Null(), NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := getRow(tbl, id)
	if row[3].Kind != KindFloat || row[3].Float != 3.0 {
		t.Errorf("INT not widened: %v", row[3])
	}
}

// The table stores its own copy of a row, whether or not it widens a value:
// writing the caller's row afterwards changes nothing stored, and widening
// never writes the caller's row.
func TestInsertAndUpdateStoreTheirOwnCopy(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	for _, load := range []Value{NewFloat(0.5), NewInt(3)} {
		row := Row{NewInt(1), NewText("h"), NewInt(64), load}
		id, err := tbl.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		if row[3] != load {
			t.Fatalf("Insert wrote the caller's row: %v", row)
		}
		row[1] = NewText("caller")
		if got, _ := getRow(tbl, id); got[1] != NewText("h") {
			t.Fatalf("stored row follows the caller's insert row: %v", got)
		}
		upd := Row{NewInt(1), NewText("u"), NewInt(64), load}
		if err := tbl.Update(id, upd); err != nil {
			t.Fatal(err)
		}
		upd[1] = NewText("caller")
		if got, _ := getRow(tbl, id); got[1] != NewText("u") || got[3].Kind != KindFloat {
			t.Fatalf("stored row follows the caller's update row: %v", got)
		}
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	if _, err := tbl.Insert(Row{NewInt(1), NewText("a"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	_, err := tbl.Insert(Row{NewInt(1), NewText("b"), Null(), Null()})
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Errorf("duplicate PK: %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("failed insert changed table: Len=%d", tbl.Len())
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	if _, err := db.CreateIndex(IndexDef{Name: "idx_host", Table: "providers", Columns: []string{"host"}}); err != nil {
		t.Fatal(err)
	}
	id, _ := tbl.Insert(Row{NewInt(1), NewText("old"), Null(), Null()})
	if err := tbl.Update(id, Row{NewInt(1), NewText("new"), NewInt(128), Null()}); err != nil {
		t.Fatal(err)
	}
	ix, _ := tbl.Index("idx_host")
	if ids := lookup(ix, Key{NewText("old")}); len(ids) != 0 {
		t.Error("stale index entry for old value")
	}
	if ids := lookup(ix, Key{NewText("new")}); len(ids) != 1 || ids[0] != id {
		t.Errorf("index not updated: %v", ids)
	}
}

func TestUpdateUniquenessRollback(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	id1, _ := tbl.Insert(Row{NewInt(1), NewText("a"), Null(), Null()})
	tbl.Insert(Row{NewInt(2), NewText("b"), Null(), Null()})
	// Updating row 1 to PK 2 must fail and leave everything intact.
	if err := tbl.Update(id1, Row{NewInt(2), NewText("a"), Null(), Null()}); err == nil {
		t.Fatal("conflicting update accepted")
	}
	row, ok := getRow(tbl, id1)
	if !ok || row[0].Int != 1 {
		t.Errorf("row changed after failed update: %v", row)
	}
	// Index entries must still find both rows.
	ix, _ := tbl.Index("providers_pk")
	if len(lookup(ix, Key{NewInt(1)})) != 1 || len(lookup(ix, Key{NewInt(2)})) != 1 {
		t.Error("index entries lost after failed update")
	}
	// Self-keeping update (same PK) must succeed.
	if err := tbl.Update(id1, Row{NewInt(1), NewText("changed"), Null(), Null()}); err != nil {
		t.Errorf("same-key update rejected: %v", err)
	}
}

func TestSlotReuse(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	id1, _ := tbl.Insert(Row{NewInt(1), NewText("a"), Null(), Null()})
	tbl.Delete(id1)
	id2, _ := tbl.Insert(Row{NewInt(2), NewText("b"), Null(), Null()})
	if id2 != id1 {
		t.Errorf("slot not reused: %d vs %d", id2, id1)
	}
}

func TestScanAndEarlyStop(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{NewInt(int64(i)), NewText("h"), Null(), Null()})
	}
	tbl.Delete(3)
	n := 0
	tbl.Scan(func(id int64, row Row) bool {
		if id == 3 {
			t.Error("deleted row visited")
		}
		n++
		return true
	})
	if n != 9 {
		t.Errorf("visited %d rows", n)
	}
	n = 0
	tbl.Scan(func(int64, Row) bool { n++; return n < 4 })
	if n != 4 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestCreateIndexOnPopulatedTable(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	for i := 0; i < 20; i++ {
		tbl.Insert(Row{NewInt(int64(i)), NewText("h"), NewInt(int64(i % 4)), Null()})
	}
	ix, err := db.CreateIndex(IndexDef{Name: "idx_mem", Table: "providers", Columns: []string{"memory"}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 20 {
		t.Errorf("index Len = %d", ix.Len())
	}
	if ids := lookup(ix, Key{NewInt(2)}); len(ids) != 5 {
		t.Errorf("lookup found %d rows, want 5", len(ids))
	}
}

func TestUniqueIndexNullExemption(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	if _, err := db.CreateIndex(IndexDef{Name: "u_mem", Table: "providers", Columns: []string{"memory"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	// Multiple NULLs allowed in a unique index.
	if _, err := tbl.Insert(Row{NewInt(1), NewText("a"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{NewInt(2), NewText("b"), Null(), Null()}); err != nil {
		t.Errorf("second NULL rejected: %v", err)
	}
	if _, err := tbl.Insert(Row{NewInt(3), NewText("c"), NewInt(64), Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{NewInt(4), NewText("d"), NewInt(64), Null()}); err == nil {
		t.Error("duplicate non-NULL accepted in unique index")
	}
}

func TestDatabaseCatalog(t *testing.T) {
	db := NewDatabase()
	mustTable(t, db, testDef())
	if _, err := db.CreateTable(testDef()); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate table: %v", err)
	}
	if !db.HasTable("PROVIDERS") {
		t.Error("table lookup should be case-insensitive")
	}
	if _, err := db.Table("absent"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "providers" {
		t.Errorf("TableNames = %v", names)
	}
	if err := db.DropTable("providers"); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("providers") {
		t.Error("dropped table still present")
	}
	if err := db.DropTable("providers"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("double drop: %v", err)
	}
}

func TestIndexCatalogErrors(t *testing.T) {
	db := NewDatabase()
	mustTable(t, db, testDef())
	if _, err := db.CreateIndex(IndexDef{Name: "i", Table: "absent", Columns: []string{"x"}}); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("index on missing table: %v", err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "i", Table: "providers", Columns: []string{"nope"}}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("index on missing column: %v", err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "i", Table: "providers", Columns: []string{"host"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "i", Table: "providers", Columns: []string{"host"}}); !errors.Is(err, ErrIndexExists) {
		t.Errorf("duplicate index: %v", err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	for i := 0; i < 100; i++ {
		tbl.Insert(Row{NewInt(int64(i)), NewText("h"), NewInt(int64(i)), Null()})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				tbl.Scan(func(_ int64, row Row) bool { return true })
				getRow(tbl, int64(k%100))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 300; i++ {
			tbl.Insert(Row{NewInt(int64(i)), NewText("w"), Null(), Null()})
		}
	}()
	wg.Wait()
	if tbl.Len() != 300 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

// getRow returns the stored row with the given ID, if it is live.
func getRow(tbl *Table, rowID int64) (Row, bool) {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if rowID < 0 || rowID >= int64(len(tbl.rows)) || tbl.rows[rowID] == nil {
		return nil, false
	}
	return tbl.rows[rowID], true
}

// lookup returns, in index order, the IDs of the rows whose key is key.
func lookup(ix *Index, key Key) []int64 {
	var ids []int64
	ix.ScanRange(key, key, func(_ Row, rowID int64) bool {
		ids = append(ids, rowID)
		return true
	})
	return ids
}
