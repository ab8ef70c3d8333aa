package rdb

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func populated(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	tbl := mustTable(t, db, testDef())
	if _, err := db.CreateIndex(IndexDef{Name: "idx_mem", Table: "providers", Columns: []string{"memory"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "idx_host", Table: "providers", Columns: []string{"host"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(Row{NewInt(int64(i)), NewText("host" + string(rune('a'+i%5))), NewInt(int64(i * 8)), NewFloat(float64(i) / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	// Some deletions so the snapshot compacts.
	tbl.Delete(7)
	tbl.Delete(13)
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := populated(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Table("providers")
	t2, err := db2.Table("providers")
	if err != nil {
		t.Fatal(err)
	}
	if t2.Len() != t1.Len() {
		t.Fatalf("loaded Len = %d, want %d", t2.Len(), t1.Len())
	}
	// Schema preserved.
	d1, d2 := t1.Def(), t2.Def()
	if len(d1.Columns) != len(d2.Columns) {
		t.Fatal("column count mismatch")
	}
	for i := range d1.Columns {
		if d1.Columns[i] != d2.Columns[i] {
			t.Errorf("column %d: %+v vs %+v", i, d1.Columns[i], d2.Columns[i])
		}
	}
	// Indexes rebuilt and functional.
	ix, ok := t2.Index("idx_mem")
	if !ok {
		t.Fatal("idx_mem not rebuilt")
	}
	if ix.Len() != t2.Len() {
		t.Errorf("index Len %d, table Len %d", ix.Len(), t2.Len())
	}
	if ids := lookup(ix, Key{NewInt(16)}); len(ids) != 1 {
		t.Errorf("lookup after reload: %v", ids)
	}
	hx, ok := t2.Index("idx_host")
	if !ok {
		t.Fatal("idx_host not rebuilt")
	}
	if ids := lookup(hx, Key{NewText("hostc")}); len(ids) != 9 { // row 7 was deleted
		t.Errorf("text lookup after reload: %v", ids)
	}
	// Primary key uniqueness still enforced.
	if _, err := t2.Insert(Row{NewInt(1), NewText("x"), Null(), Null()}); err == nil {
		t.Error("PK uniqueness lost after reload")
	}
	// Row contents identical (set comparison via scan).
	rows1 := map[string]bool{}
	t1.Scan(func(_ int64, r Row) bool {
		rows1[rowFingerprint(r)] = true
		return true
	})
	t2.Scan(func(_ int64, r Row) bool {
		if !rows1[rowFingerprint(r)] {
			t.Errorf("unexpected row after reload: %v", r)
		}
		return true
	})
}

func rowFingerprint(r Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.Kind.String() + ":" + v.String()
	}
	return strings.Join(parts, "|")
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveEmptyDatabase(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDatabase().Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.TableNames()) != 0 {
		t.Error("empty database round trip gained tables")
	}
}

// TestSaveQuiescesWriters: Save read-locks every table at once while it
// clones, so a snapshot is one point in time across tables. A writer inserts
// row i into left and then into right, so every snapshot must hold as many
// rows in right as in left, or one fewer. Tables are cloned in name order,
// and middle, which the writer never touches, sits between the two: a clone
// that locks one table at a time lets the writer run for all of middle's
// clone and shows right ahead of left.
func TestSaveQuiescesWriters(t *testing.T) {
	db := NewDatabase()
	def := func(name string) TableDef {
		return TableDef{Name: name, Columns: []ColumnDef{
			{Name: "id", Type: KindInt, PrimaryKey: true},
		}}
	}
	left := mustTable(t, db, def("left"))
	middle := mustTable(t, db, def("middle"))
	right := mustTable(t, db, def("right"))
	for i := int64(0); i < 5000; i++ {
		if _, err := middle.Insert(Row{NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 20_000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := left.Insert(Row{NewInt(i)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := right.Insert(Row{NewInt(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	for left.Len() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := snap.Table("left")
		r, _ := snap.Table("right")
		if d := l.Len() - r.Len(); d < 0 || d > 1 {
			t.Fatalf("inconsistent snapshot: left=%d right=%d", l.Len(), r.Len())
		}
	}
}

// TestSaveDeterministic: two databases with identical content — and the
// same database saved twice — must serialize to identical bytes. Indexes
// live in a map, so the writer must emit them in sorted order; unsorted
// emission made snapshots of identical databases differ at random.
func TestSaveDeterministic(t *testing.T) {
	a, b := populated(t), populated(t)
	var ba, bb, ba2 bytes.Buffer
	if err := a.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(&ba2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), ba2.Bytes()) {
		t.Error("saving the same database twice produced different bytes")
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("identical databases produced different snapshot bytes")
	}
}
