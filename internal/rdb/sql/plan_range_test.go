package sql

import (
	"fmt"
	"testing"

	"mdv/internal/rdb"
)

// rangeDB builds a table shaped like the MDV filter tables: a composite
// B+tree index whose last column holds a typed numeric value.
func rangeDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE readings (
		station TEXT NOT NULL,
		sensor TEXT NOT NULL,
		num FLOAT,
		label TEXT NOT NULL
	)`)
	mustExec(t, db, `CREATE INDEX idx_read_ssn ON readings (station, sensor, num)`)
	for s := 0; s < 3; s++ {
		for v := 0; v < 10; v++ {
			mustExec(t, db,
				`INSERT INTO readings (station, sensor, num, label) VALUES (?, ?, ?, ?)`,
				rdb.NewText(fmt.Sprintf("st%d", s)), rdb.NewText("temp"),
				rdb.NewFloat(float64(v)), rdb.NewText(fmt.Sprintf("st%d-v%d", s, v)))
		}
	}
	mustExec(t, db, `INSERT INTO readings (station, sensor, num, label) VALUES (?, ?, ?, ?)`,
		rdb.NewText("st0"), rdb.NewText("temp"), rdb.Null(), rdb.NewText("st0-null"))
	return db
}

func mustExec(t testing.TB, db *DB, text string, params ...rdb.Value) {
	t.Helper()
	if _, err := db.Exec(text, params...); err != nil {
		t.Fatalf("exec %q: %v", text, err)
	}
}

// planOf compiles a SELECT and returns its plan for access-path inspection.
func planOf(t *testing.T, db *DB, text string) *selectPlan {
	t.Helper()
	st, err := Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SELECT: %q", text)
	}
	plan, err := buildSelectPlan(db.Raw(), sel)
	if err != nil {
		t.Fatalf("plan %q: %v", text, err)
	}
	return plan
}

func TestPlanPrefixPlusRangeAccess(t *testing.T) {
	db := rangeDB(t)
	cases := []struct {
		sql      string
		kind     accessKind
		nKeys    int
		hasLow   bool
		hasHigh  bool
		wantRows int
	}{
		// Equality prefix + one-sided range on the next index column.
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp' AND num > 6.0`,
			accessIndexRange, 2, true, false, 3},
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp' AND num >= 6.0`,
			accessIndexRange, 2, true, false, 4},
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp' AND num < 2.0`,
			accessIndexRange, 2, false, true, 2},
		// Two-sided range.
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp' AND num >= 2.0 AND num < 5.0`,
			accessIndexRange, 2, true, true, 3},
		// Full equality on every index column is a point lookup.
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp' AND num = 4.0`,
			accessIndexPoint, 3, false, false, 1},
		// No range conjunct: plain prefix scan.
		{`SELECT label FROM readings WHERE station = 'st1' AND sensor = 'temp'`,
			accessIndexPrefix, 2, false, false, 10},
	}
	for _, tc := range cases {
		plan := planOf(t, db, tc.sql)
		ap := plan.rels[0].access
		if ap.kind != tc.kind {
			t.Errorf("%s: access kind = %d, want %d", tc.sql, ap.kind, tc.kind)
		}
		if len(ap.keyExprs) != tc.nKeys {
			t.Errorf("%s: %d key exprs, want %d", tc.sql, len(ap.keyExprs), tc.nKeys)
		}
		if (ap.lowExpr != nil) != tc.hasLow || (ap.highExpr != nil) != tc.hasHigh {
			t.Errorf("%s: bounds (low=%v, high=%v), want (%v, %v)",
				tc.sql, ap.lowExpr != nil, ap.highExpr != nil, tc.hasLow, tc.hasHigh)
		}
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if rows.Len() != tc.wantRows {
			t.Errorf("%s: %d rows, want %d", tc.sql, rows.Len(), tc.wantRows)
		}
	}
}

// TestPlanPrefixRangeJoin exercises the shape the MDV triggering queries
// use: the inner relation's range bound comes from the outer relation's
// column.
func TestPlanPrefixRangeJoin(t *testing.T) {
	db := rangeDB(t)
	mustExec(t, db, `CREATE TABLE probes (station TEXT NOT NULL, sensor TEXT NOT NULL, num FLOAT)`)
	mustExec(t, db, `INSERT INTO probes (station, sensor, num) VALUES (?, ?, ?)`,
		rdb.NewText("st2"), rdb.NewText("temp"), rdb.NewFloat(7))

	q := `SELECT r.label FROM probes p, readings r
		WHERE r.station = p.station AND r.sensor = p.sensor AND r.num > p.num`
	plan := planOf(t, db, q)
	ap := plan.rels[1].access
	if ap.kind != accessIndexRange {
		t.Fatalf("inner access kind = %d, want range", ap.kind)
	}
	if len(ap.keyExprs) != 2 || ap.lowExpr == nil || ap.highExpr != nil {
		t.Fatalf("inner access = %d keys, low=%v high=%v; want 2 keys, low only",
			len(ap.keyExprs), ap.lowExpr != nil, ap.highExpr != nil)
	}
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 { // st2 values 8, 9
		t.Fatalf("join returned %d rows, want 2", rows.Len())
	}

	// NULL bound: no matches (mirrors three-valued comparison semantics).
	mustExec(t, db, `DELETE FROM probes`)
	mustExec(t, db, `INSERT INTO probes (station, sensor, num) VALUES (?, ?, ?)`,
		rdb.NewText("st2"), rdb.NewText("temp"), rdb.Null())
	rows, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("NULL bound returned %d rows, want 0", rows.Len())
	}
}

// TestPlanRangeExclusiveBoundsAndNulls checks that inclusive index bounds
// plus the residual filter give exact exclusive semantics and skip NULL
// column values.
func TestPlanRangeExclusiveBoundsAndNulls(t *testing.T) {
	db := rangeDB(t)
	rows, err := db.Query(
		`SELECT label FROM readings WHERE station = 'st0' AND sensor = 'temp' AND num > 0.0 AND num < 9.0`)
	if err != nil {
		t.Fatal(err)
	}
	// Values 1..8; the NULL row and the boundary rows are excluded.
	if rows.Len() != 8 {
		t.Fatalf("got %d rows, want 8", rows.Len())
	}
	for _, r := range rows.Data {
		if r[0].Str == "st0-null" {
			t.Fatalf("NULL num row matched a range predicate")
		}
	}
}
