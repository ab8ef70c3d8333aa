package sql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mdv/internal/rdb"
)

// Index reads hand the executor the table's stored rows instead of copies.
// These tests pin the contract that makes that safe: no caller of a SELECT
// can write a stored row through what it receives, UPDATE and DELETE never
// write a stored row in place, and an index finds an updated row under its
// new key only.

func storedRowsDB(t *testing.T) (*DB, *rdb.Table) {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE r (id INT PRIMARY KEY, grp INT, name TEXT, score FLOAT)`)
	mustExec(t, db, `CREATE INDEX i_grp_name ON r (grp, name)`)
	mustExec(t, db, `CREATE INDEX i_name ON r (name)`)
	for i := 0; i < 40; i++ {
		// score is given as INT, so the table widens it to FLOAT.
		mustExec(t, db, `INSERT INTO r (id, grp, name, score) VALUES (?, ?, ?, ?)`,
			rdb.NewInt(int64(i)), rdb.NewInt(int64(i%4)), rdb.NewText(fmt.Sprintf("n%d", i%5)), rdb.NewInt(int64(i/2)))
	}
	tbl, err := db.Raw().Table("r")
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// storedRows captures the table's stored rows by reference, keyed by row ID,
// beside a private copy of each.
type storedRows struct {
	refs, copies map[int64]rdb.Row
}

func captureStored(tbl *rdb.Table) storedRows {
	s := storedRows{map[int64]rdb.Row{}, map[int64]rdb.Row{}}
	tbl.Scan(func(id int64, row rdb.Row) bool {
		s.refs[id] = row
		s.copies[id] = row.Clone()
		return true
	})
	return s
}

// unchanged fails if any captured stored row was written since the capture.
func (s storedRows) unchanged(t *testing.T, when string) {
	t.Helper()
	for id, row := range s.refs {
		if !reflect.DeepEqual(row, s.copies[id]) {
			t.Fatalf("%s: stored row %d was written in place: %v, was %v", when, id, row, s.copies[id])
		}
	}
}

func queryRows(t *testing.T, db *DB, q string) [][]rdb.Value {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows.Data
}

func queryIDs(t *testing.T, db *DB, q string) []int64 {
	t.Helper()
	var ids []int64
	for _, row := range queryRows(t, db, q) {
		ids = append(ids, row[0].Int)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func TestSelectCallersCannotWriteStoredRows(t *testing.T) {
	db, tbl := storedRowsDB(t)
	stored := captureStored(tbl)
	cases := []struct {
		path, query string
		kind        accessKind
	}{
		{"TEXT point lookup", `SELECT * FROM r WHERE name = 'n3'`, accessIndexPoint},
		{"INT point lookup", `SELECT * FROM r WHERE id = 7`, accessIndexPoint},
		{"prefix scan", `SELECT * FROM r WHERE grp = 2`, accessIndexPrefix},
		{"range scan", `SELECT * FROM r WHERE id >= 10 AND id < 20`, accessIndexRange},
		{"full scan", `SELECT * FROM r WHERE score > 3.0`, accessFullScan},
	}
	for _, c := range cases {
		if a := planOf(t, db, c.query).rels[0].access; a.kind != c.kind {
			t.Fatalf("%s: %q planned as access kind %d", c.path, c.query, a.kind)
		}
		want := queryRows(t, db, c.query)
		if len(want) == 0 {
			t.Fatalf("%s: %q matches no row", c.path, c.query)
		}
		err := db.QueryFunc(c.query, nil, func(row []rdb.Value) error {
			for i := range row {
				row[i] = rdb.NewText("overwritten")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		stored.unchanged(t, c.path)
		if got := queryRows(t, db, c.query); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: second run of %q returned %v, want %v", c.path, c.query, got, want)
		}
	}
}

func TestUpdateAndDeleteNeverWriteStoredRows(t *testing.T) {
	db, tbl := storedRowsDB(t)
	// Each statement reaches its rows through one access path: an INT point
	// lookup, a prefix scan, a TEXT point lookup, a range scan and a full
	// scan.
	cases := []struct {
		stmt, where string
		deletes     bool
	}{
		{`UPDATE r SET score = score - 100.0`, `id = 7`, false},
		{`UPDATE r SET score = score - 100.0`, `grp = 1`, false},
		{`UPDATE r SET score = score - 100.0`, `name = 'n4'`, false},
		{`UPDATE r SET score = score - 100.0`, `id >= 30 AND id < 34`, false},
		{`UPDATE r SET score = score - 100.0`, `score > 15.0`, false},
		{`DELETE FROM r`, `id = 3`, true},
		{`DELETE FROM r`, `grp = 2`, true},
		{`DELETE FROM r`, `name = 'n1'`, true},
		{`DELETE FROM r`, `id > 35`, true},
		{`DELETE FROM r`, `score < 0.0 - 150.0`, true},
	}
	for _, c := range cases {
		stmt := c.stmt + ` WHERE ` + c.where
		matched := map[int64]bool{}
		for _, id := range queryIDs(t, db, `SELECT id FROM r WHERE `+c.where) {
			matched[id] = true
		}
		if len(matched) == 0 {
			t.Fatalf("%s matches no row", stmt)
		}
		before := captureStored(tbl)
		if n, err := db.Exec(stmt); err != nil || n != len(matched) {
			t.Fatalf("%s: %d rows, %v; want %d rows", stmt, n, err, len(matched))
		}
		before.unchanged(t, stmt)
		after := captureStored(tbl)
		for id, old := range before.copies {
			row, live := after.copies[id]
			switch {
			case !matched[id] && !reflect.DeepEqual(row, old):
				t.Fatalf("%s: unmatched row %d became %v, was %v", stmt, id, row, old)
			case matched[id] && c.deletes && live:
				t.Fatalf("%s: row %d survived", stmt, id)
			case matched[id] && !c.deletes && (row[3].Float != old[3].Float-100 || !reflect.DeepEqual(row[:3], old[:3])):
				t.Fatalf("%s: row %d became %v, was %v", stmt, id, row, old)
			}
		}
	}
}

func TestUpdateOfIndexedColumnMovesTheEntry(t *testing.T) {
	db, tbl := storedRowsDB(t)
	old, ok := captureStored(tbl).copies[5]
	if !ok {
		t.Fatal("row 5 missing")
	}
	if old[1] != rdb.NewInt(1) || old[2] != rdb.NewText("n0") {
		t.Fatalf("fixture changed: row 5 is %v", old)
	}
	mustExec(t, db, `UPDATE r SET grp = 42, name = 'renamed' WHERE id = 5`)
	for _, c := range []struct {
		query string
		want  []int64
	}{
		{`SELECT id FROM r WHERE grp = 42`, []int64{5}},                           // prefix, new key
		{`SELECT id FROM r WHERE grp = 42 AND name = 'renamed'`, []int64{5}},      // point, new key
		{`SELECT id FROM r WHERE name = 'renamed'`, []int64{5}},                   // TEXT point, new key
		{`SELECT id FROM r WHERE grp = 1 AND name = 'n0' AND id = 5`, nil},        // old key
		{`SELECT id FROM r WHERE name = 'n0' AND id >= 5 AND id <= 5`, nil},       // old TEXT key
		{`SELECT id FROM r WHERE grp = 1 AND id >= 0 AND id <= 9`, []int64{1, 9}}, // old prefix
	} {
		if got := queryIDs(t, db, c.query); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.query, got, c.want)
		}
	}
	// The rows the indexes hand out are the new row, not the old one.
	for _, q := range []string{
		`SELECT * FROM r WHERE grp = 42`,
		`SELECT * FROM r WHERE grp = 42 AND name = 'renamed'`,
		`SELECT * FROM r WHERE name = 'renamed'`,
		`SELECT * FROM r WHERE id = 5`,
	} {
		rows := queryRows(t, db, q)
		want := []rdb.Value{rdb.NewInt(5), rdb.NewInt(42), rdb.NewText("renamed"), old[3]}
		if len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
			t.Errorf("%s: got %v, want [%v]", q, rows, want)
		}
	}
}
