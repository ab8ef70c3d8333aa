package sql

import (
	"fmt"
	"testing"

	"mdv/internal/rdb"
)

const insertService = `INSERT INTO services (sid, pid, name, price) VALUES (?, ?, ?, ?)`

// TestExecBatch proves the amortized insert path is equivalent to executing
// the single-row INSERT once per parameter row.
func TestExecBatch(t *testing.T) {
	db := testDB(t)
	var rows [][]rdb.Value
	for i := 0; i < 25; i++ {
		rows = append(rows, []rdb.Value{
			rdb.NewInt(int64(100 + i)), rdb.NewInt(int64(i%20 + 1)),
			rdb.NewText(fmt.Sprintf("batch%d", i)), rdb.NewFloat(float64(i) / 4),
		})
	}
	n, err := db.ExecBatch(insertService, rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("ExecBatch inserted %d rows, want %d", n, len(rows))
	}

	// A control database receives the same rows one Exec at a time; both
	// must answer queries identically.
	control := testDB(t)
	for _, r := range rows {
		if _, err := control.Exec(insertService, r...); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT sid, name FROM services WHERE sid >= 100 ORDER BY sid`
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(rows) || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
		t.Fatalf("batch and single-row inserts diverge:\n got  %v\nwant %v", got.Data, want.Data)
	}

	// An empty batch is a no-op.
	if n, err := db.ExecBatch(insertService, nil); err != nil || n != 0 {
		t.Fatalf("empty batch: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestExecBatchRequiresSingleRowInsert rejects statements the batch fast
// path cannot amortize; a multi-row INSERT does not parse at all.
func TestExecBatchRequiresSingleRowInsert(t *testing.T) {
	db := testDB(t)
	for _, text := range []string{
		`SELECT id FROM providers`,
		`DELETE FROM services WHERE sid = ?`,
		`INSERT INTO services (sid, pid) VALUES (1000, 1), (1001, 2)`,
	} {
		if _, err := db.ExecBatch(text, [][]rdb.Value{nil}); err == nil {
			t.Errorf("ExecBatch accepted %q", text)
		}
	}
	if _, err := Parse(`INSERT INTO services (sid, pid) VALUES (1000, 1), (1001, 2)`); err == nil {
		t.Error("multi-row INSERT parsed")
	}
}
