package sql

import (
	"fmt"
	"testing"

	"mdv/internal/rdb"
)

// Tests for the index-assisted UPDATE/DELETE path (scanCandidates): the
// optimization must never change which rows a statement affects.

func dmlDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE r (id INT PRIMARY KEY, grp INT, name TEXT)`)
	db.MustExec(`CREATE INDEX i_grp ON r (grp)`)
	db.MustExec(`CREATE INDEX i_name ON r (name) USING HASH`)
	for i := 0; i < 50; i++ {
		db.MustExec(`INSERT INTO r (id, grp, name) VALUES (?, ?, ?)`,
			rdb.NewInt(int64(i)), rdb.NewInt(int64(i%5)), rdb.NewText(fmt.Sprintf("n%d", i%7)))
	}
	return db
}

func countWhere(t *testing.T, db *DB, where string) int {
	t.Helper()
	rows, err := db.Query(`SELECT id FROM r WHERE ` + where)
	if err != nil {
		t.Fatal(err)
	}
	return rows.Len()
}

func TestUpdateViaPrimaryKeyIndex(t *testing.T) {
	db := dmlDB(t)
	n, err := db.Exec(`UPDATE r SET name = 'changed' WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("updated %d rows", n)
	}
	if got := countWhere(t, db, `name = 'changed'`); got != 1 {
		t.Errorf("changed rows = %d", got)
	}
}

func TestUpdateViaSecondaryIndexWithResidual(t *testing.T) {
	db := dmlDB(t)
	// grp = 2 selects ids 2,7,12,...,47 (10 rows); residual halves it.
	n, err := db.Exec(`UPDATE r SET name = 'x' WHERE grp = 2 AND id < 25`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("updated %d rows, want 5", n)
	}
	if got := countWhere(t, db, `name = 'x'`); got != 5 {
		t.Errorf("marked rows = %d", got)
	}
}

func TestDeleteViaHashIndex(t *testing.T) {
	db := dmlDB(t)
	before := countWhere(t, db, `name = 'n3'`)
	n, err := db.Exec(`DELETE FROM r WHERE name = 'n3'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != before {
		t.Errorf("deleted %d rows, want %d", n, before)
	}
	if got := countWhere(t, db, `name = 'n3'`); got != 0 {
		t.Errorf("rows remain: %d", got)
	}
}

func TestUpdateWithParamKey(t *testing.T) {
	db := dmlDB(t)
	st := db.MustPrepare(`UPDATE r SET grp = grp + 100 WHERE id = ?`)
	for i := 0; i < 5; i++ {
		n, err := st.Exec(rdb.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("id %d: updated %d rows", i, n)
		}
	}
	if got := countWhere(t, db, `grp >= 100`); got != 5 {
		t.Errorf("updated rows = %d", got)
	}
}

func TestDeleteNoIndexFallsBackToScan(t *testing.T) {
	db := dmlDB(t)
	// No index on an expression: id - 25 >= 0 must still work (full scan).
	n, err := db.Exec(`DELETE FROM r WHERE id - 25 >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("deleted %d rows, want 25", n)
	}
}

func TestUpdateIndexKeyMiss(t *testing.T) {
	db := dmlDB(t)
	n, err := db.Exec(`UPDATE r SET name = 'y' WHERE id = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("phantom update: %d rows", n)
	}
	// NULL key matches nothing.
	n, err = db.Exec(`DELETE FROM r WHERE grp = NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("NULL-key delete removed %d rows", n)
	}
}

// TestUpdateIndexedColumnItself: updating the very column the candidate
// index covers must both apply and keep the index consistent.
func TestUpdateIndexedColumnItself(t *testing.T) {
	db := dmlDB(t)
	n, err := db.Exec(`UPDATE r SET grp = 99 WHERE grp = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("updated %d rows, want 10", n)
	}
	if got := countWhere(t, db, `grp = 1`); got != 0 {
		t.Errorf("old key still matches %d rows", got)
	}
	if got := countWhere(t, db, `grp = 99`); got != 10 {
		t.Errorf("new key matches %d rows", got)
	}
	// Repeating the same update is now a no-op.
	n, err = db.Exec(`UPDATE r SET grp = 99 WHERE grp = 1`)
	if err != nil || n != 0 {
		t.Errorf("repeat update: n=%d err=%v", n, err)
	}
}
