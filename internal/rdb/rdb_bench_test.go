package rdb

import (
	"fmt"
	"testing"
)

// Microbenchmarks of the storage substrate: they bound what the filter
// algorithm's SQL plans can cost per probe.

func benchTable(b *testing.B, rows int) *Table {
	b.Helper()
	db := NewDatabase()
	tbl, err := db.CreateTable(TableDef{
		Name: "t",
		Columns: []ColumnDef{
			{Name: "id", Type: KindInt, PrimaryKey: true},
			{Name: "k", Type: KindText},
			{Name: "v", Type: KindInt},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "ik", Table: "t", Columns: []string{"k"}}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex(IndexDef{Name: "iv", Table: "t", Columns: []string{"v"}}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(Row{NewInt(int64(i)), NewText(fmt.Sprintf("k%d", i)), NewInt(int64(i % 1000))}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func BenchmarkTableInsert(b *testing.B) {
	tbl := benchTable(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(Row{NewInt(int64(i)), NewText("k"), NewInt(int64(i))})
	}
}

func BenchmarkBTreePointLookup(b *testing.B) {
	tbl := benchTable(b, 100000)
	ix, _ := tbl.Index("t_pk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(ix, Key{NewInt(int64(i % 100000))})
	}
}

// BenchmarkBTreeTextPointLookup probes a one-column TEXT index, the shape of
// the filter's rule-text and group-key interning lookups.
func BenchmarkBTreeTextPointLookup(b *testing.B) {
	tbl := benchTable(b, 100000)
	ix, _ := tbl.Index("ik")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(ix, Key{NewText(fmt.Sprintf("k%d", i%100000))})
	}
}

func BenchmarkBTreeRangeScan100(b *testing.B) {
	tbl := benchTable(b, 100000)
	ix, _ := tbl.Index("iv") // 100 rows per distinct v
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ix.ScanRange(Key{NewInt(int64(i % 1000))}, Key{NewInt(int64(i % 1000))},
			func(Row, int64) bool { n++; return true })
	}
}

func BenchmarkTableScan(b *testing.B) {
	tbl := benchTable(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tbl.Scan(func(int64, Row) bool { n++; return true })
	}
}
