package sql

import (
	"fmt"
	"testing"

	"mdv/internal/rdb"
)

// Microbenchmarks of the SQL layer — the cost building blocks of the
// filter's statements, each run by its text through the statement table.

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, k TEXT, v INT)`)
	db.MustExec(`CREATE INDEX ik ON t (k)`)
	db.MustExec(`CREATE INDEX iv ON t (v)`)
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO t (id, k, v) VALUES (?, ?, ?)`, rdb.NewInt(int64(i)), rdb.NewText(fmt.Sprintf("k%d", i)),
			rdb.NewInt(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkParse(b *testing.B) {
	const q = `SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v > 10 ORDER BY a.id LIMIT 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointSelect(b *testing.B) {
	db := benchDB(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query(`SELECT v FROM t WHERE id = ?`, rdb.NewInt(int64(i%100000)))
		if err != nil || rows.Len() != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedJoin(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT a.id FROM t a, t b WHERE a.v = ? AND b.id = a.id`, rdb.NewInt(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	db := benchDB(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rdb.NewInt(int64(i))
		if _, err := db.Exec(`INSERT INTO t (id, k, v) VALUES (?, ?, ?)`, id, rdb.NewText("k"), rdb.NewInt(1)); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`DELETE FROM t WHERE id = ?`, id); err != nil {
			b.Fatal(err)
		}
	}
}
