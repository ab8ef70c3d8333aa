package sql

import (
	"fmt"
	"testing"

	"mdv/internal/rdb"
)

// Tests for the index-assisted UPDATE/DELETE path: both reach their rows
// through the SELECT planner's access path, which must never change which
// rows a statement affects.

func dmlDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE r (id INT PRIMARY KEY, grp INT, name TEXT)`)
	db.MustExec(`CREATE INDEX i_grp ON r (grp)`)
	db.MustExec(`CREATE INDEX i_name ON r (name)`)
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

func TestDeleteViaTextIndex(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		n, err := db.Exec(`UPDATE r SET grp = grp + 100 WHERE id = ?`, rdb.NewInt(int64(i)))
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

// scanDB builds a table with a one-column index (a) and a two-column index
// (a, b), created in the given order, and a three-column index (a, b, c).
// Row i has a = i%4, b = i%3, c = "c<i%2>".
func scanDB(t *testing.T, abFirst bool) *DB {
	t.Helper()
	ddl := []string{`CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)`,
		`CREATE INDEX i_a ON t (a)`, `CREATE INDEX i_ab ON t (a, b)`}
	if abFirst {
		ddl[1], ddl[2] = ddl[2], ddl[1]
	}
	db := openWith(t, append(ddl, `CREATE INDEX i_abc ON t (a, b, c)`)...)
	for i := 0; i < 60; i++ {
		mustExec(t, db, `INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)`, rdb.NewInt(int64(i)),
			rdb.NewInt(int64(i%4)), rdb.NewInt(int64(i%3)), rdb.NewText(fmt.Sprintf("c%d", i%2)))
	}
	return db
}

// scanCases are WHERE clauses with the number of candidate rows their access
// path must visit and the number they match.
var scanCases = []struct {
	where   string
	params  []rdb.Value
	visits  int
	matches int
}{
	// (a, b) is a full key of i_ab: a point lookup, whichever conjunct
	// comes first; i_a alone would visit all 15 rows with a = 1.
	{"a = ? AND b = ?", []rdb.Value{rdb.NewInt(1), rdb.NewInt(2)}, 5, 5},
	{"b = ? AND a = ?", []rdb.Value{rdb.NewInt(2), rdb.NewInt(1)}, 5, 5},
	// Only i_abc takes the whole key; i_ab would visit 5 rows.
	{"a = 1 AND b = 2 AND c = 'c0'", nil, 0, 0},
	// c does not extend any prefix past a: i_a's full key wins the tie.
	{"a = ? AND c = ?", []rdb.Value{rdb.NewInt(1), rdb.NewText("c1")}, 15, 15},
	// No index is led by b: a full scan.
	{"b = ? AND c = ?", []rdb.Value{rdb.NewInt(2), rdb.NewText("c1")}, 60, 10},
	// The primary key is a full one-column key, as long as (a, b).
	{"a = ? AND id = ?", []rdb.Value{rdb.NewInt(1), rdb.NewInt(5)}, 1, 1},
	// A range on the primary key is a range scan, as in a SELECT; its bounds
	// are inclusive, and the filter drops id = 20.
	{"id >= ? AND id < ? AND b = 0", []rdb.Value{rdb.NewInt(10), rdb.NewInt(20)}, 11, 3},
}

// TestScanCandidatesLongestPrefix: the candidate rows UPDATE and DELETE scan
// come through the index with the longest `=`-bound prefix, whatever the
// order of the indexes in the catalogue's map and of the conjuncts in the
// clause.
func TestScanCandidatesLongestPrefix(t *testing.T) {
	for _, abFirst := range []bool{false, true} {
		db := scanDB(t, abFirst)
		for _, tc := range scanCases {
			st, err := Parse(`DELETE FROM t WHERE ` + tc.where)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 10; rep++ { // map order changes between calls
				p, err := db.planDML("t", nil, st.(*DeleteStmt).Where)
				if err != nil {
					t.Fatal(err)
				}
				visits := 0
				err = p.rel.visit(nil, tc.params, func(int64, rdb.Row) error {
					visits++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if visits != tc.visits {
					t.Fatalf("abFirst=%v, %s: visited %d rows, want %d", abFirst, tc.where, visits, tc.visits)
				}
			}
		}
	}
}

// TestScanCandidatesKeepsAffectedRows: the index choice changes only how many
// candidate rows are visited, never which rows UPDATE and DELETE affect.
func TestScanCandidatesKeepsAffectedRows(t *testing.T) {
	count := func(db *DB, where string, params []rdb.Value) int {
		rows, err := db.Query(`SELECT id FROM t WHERE `+where, params...)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Len()
	}
	for _, abFirst := range []bool{false, true} {
		for _, tc := range scanCases {
			db := scanDB(t, abFirst)
			if got := count(db, tc.where, tc.params); got != tc.matches {
				t.Fatalf("%s: SELECT found %d rows, want %d", tc.where, got, tc.matches)
			}
			n, err := db.Exec(`UPDATE t SET id = id + 1000 WHERE `+tc.where, tc.params...)
			if err != nil || n != tc.matches {
				t.Fatalf("%s: UPDATE affected %d rows (%v), want %d", tc.where, n, err, tc.matches)
			}
			if got := count(db, "id >= 1000", nil); got != tc.matches {
				t.Fatalf("%s: %d rows updated, want %d", tc.where, got, tc.matches)
			}
			db = scanDB(t, abFirst)
			n, err = db.Exec(`DELETE FROM t WHERE `+tc.where, tc.params...)
			if err != nil || n != tc.matches {
				t.Fatalf("%s: DELETE affected %d rows (%v), want %d", tc.where, n, err, tc.matches)
			}
			if got := count(db, tc.where, tc.params); got != 0 {
				t.Fatalf("%s: %d matching rows survive DELETE", tc.where, got)
			}
			if got := count(db, "id >= 0", nil); got != 60-tc.matches {
				t.Fatalf("%s: %d rows left, want %d", tc.where, got, 60-tc.matches)
			}
		}
	}
}
