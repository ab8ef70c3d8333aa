package sql

import (
	"fmt"
	"sync"
	"testing"

	"mdv/internal/metrics"
	"mdv/internal/rdb"
)

// tableEntry returns text's entry in db's statement table, or nil.
func tableEntry(db *DB, text string) *stmtEntry {
	e, ok := db.table.Load(text)
	if !ok {
		return nil
	}
	return e.(*stmtEntry)
}

// counter reads one labelled counter of the SQL layer's instruments.
func counter(reg *metrics.Registry, name string, label metrics.Label) uint64 {
	return reg.Counter(name, "", label).Value()
}

// TestStatementTableReplansAfterDDL: a SELECT text keeps its plan until DDL
// runs, and after CREATE INDEX the same text switches its access path from a
// full scan to an index lookup.
func TestStatementTableReplansAfterDDL(t *testing.T) {
	db := testDB(t)
	reg := metrics.NewRegistry()
	db.EnableMetrics(reg)
	scans := func() uint64 { return counter(reg, "mdv_sql_access_paths_total", metrics.L("path", "full_scan")) }
	points := func() uint64 { return counter(reg, "mdv_sql_access_paths_total", metrics.L("path", "index_point")) }
	const sel = `SELECT sid FROM services WHERE name = ?`
	run := func(name string) {
		t.Helper()
		rows, err := db.Query(sel, rdb.NewText(name))
		if err != nil || rows.Len() != 1 {
			t.Fatalf("%s: %v rows (%v), want 1", name, rows, err)
		}
	}
	run("svc1")
	run("svc2")
	if scans() != 2 || points() != 0 {
		t.Fatalf("before the index: %d full scans, %d point lookups; want 2, 0", scans(), points())
	}
	plan := tableEntry(db, sel).cached.Load()
	db.MustExec(`CREATE INDEX idx_services_name ON services (name)`)
	run("svc3")
	if scans() != 2 || points() != 1 {
		t.Errorf("after CREATE INDEX: %d full scans, %d point lookups; want 2, 1", scans(), points())
	}
	if tableEntry(db, sel).cached.Load() == plan {
		t.Error("the plan built before the DDL was kept")
	}
	misses := counter(reg, "mdv_sql_plan_cache_total", metrics.L("result", "miss"))
	if misses != 2 {
		t.Errorf("%d plan misses, want 2 (first use, after DDL)", misses)
	}
}

// TestStatementTableSkipsParseErrors: a text that does not parse fails on
// every call with its parse error and takes no slot in the table.
func TestStatementTableSkipsParseErrors(t *testing.T) {
	db := testDB(t)
	const bad = `SELECT FROM WHERE`
	_, want := Parse(bad)
	if want == nil {
		t.Fatal("the bad text parses")
	}
	before := db.tableLen
	for i := 0; i < 3; i++ {
		if _, err := db.Query(bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, want)
		}
		if _, err := db.Exec(bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, want)
		}
	}
	if tableEntry(db, bad) != nil || db.tableLen != before {
		t.Errorf("a parse failure was retained (table %d → %d)", before, db.tableLen)
	}
}

// TestStatementTableCap: texts past the cap still run and answer correctly,
// the table stays at the cap, and a text it holds keeps its plan.
func TestStatementTableCap(t *testing.T) {
	db := openWith(t, `CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)`)
	for k := 0; k < 4; k++ {
		mustExec(t, db, `INSERT INTO kv (k, v) VALUES (?, ?)`, rdb.NewInt(int64(k)), rdb.NewInt(int64(10*k)))
	}
	reg := metrics.NewRegistry()
	db.EnableMetrics(reg)
	// Each text differs in its alias, so each is a new entry.
	text := func(i int) string { return fmt.Sprintf(`SELECT a%d.v FROM kv a%d WHERE a%d.k = ?`, i, i, i) }
	for i := 0; i < stmtTableCap+50; i++ {
		k := int64(i % 4)
		rows, err := db.Query(text(i), rdb.NewInt(k))
		if err != nil || rows.Len() != 1 || rows.Data[0][0].Int != 10*k {
			t.Fatalf("text %d: %v (%v), want %d", i, rows, err, 10*k)
		}
	}
	if db.tableLen != stmtTableCap {
		t.Fatalf("table holds %d texts, want the cap %d", db.tableLen, stmtTableCap)
	}
	if tableEntry(db, text(stmtTableCap)) != nil {
		t.Error("a text past the cap was retained")
	}
	hits := func() uint64 { return counter(reg, "mdv_sql_plan_cache_total", metrics.L("result", "hit")) }
	h := hits()
	if _, err := db.Query(text(0), rdb.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if hits() != h+1 {
		t.Error("a retained text was planned again")
	}
	if _, err := db.Query(text(stmtTableCap+1), rdb.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if hits() != h+1 || db.tableLen != stmtTableCap {
		t.Errorf("a text past the cap hit a cached plan or entered the table (%d)", db.tableLen)
	}
}

// TestStatementTableConcurrent runs one SELECT text from several goroutines
// beside concurrent INSERTs and DELETEs and a CREATE INDEX that replans it.
// Run it under -race: the goroutines share the text's entry and plan.
func TestStatementTableConcurrent(t *testing.T) {
	db := openWith(t, `CREATE TABLE kv (k INT PRIMARY KEY, g INT NOT NULL)`)
	const groups = 8
	for k := 0; k < 64; k++ {
		mustExec(t, db, `INSERT INTO kv (k, g) VALUES (?, ?)`, rdb.NewInt(int64(k)), rdb.NewInt(int64(k%groups)))
	}
	const sel = `SELECT k, g FROM kv WHERE g = ?`
	const readers, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g := int64((r + i) % groups)
				err := db.QueryFunc(sel, []rdb.Value{rdb.NewInt(g)}, func(row []rdb.Value) error {
					if row[1].Int != g || row[0].Int%groups != g {
						return fmt.Errorf("row %v in group %d", row, g)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			k := rdb.NewInt(int64(1000 + i))
			if _, err := db.Exec(`INSERT INTO kv (k, g) VALUES (?, ?)`, k, rdb.NewInt(int64(1000+i)%groups)); err != nil {
				errs <- err
				return
			}
			if i == rounds/2 {
				if _, err := db.Exec(`CREATE INDEX idx_kv_g ON kv (g)`); err != nil {
					errs <- err
					return
				}
			}
			if _, err := db.Exec(`DELETE FROM kv WHERE k = ?`, k); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rows, err := db.Query(sel, rdb.NewInt(3))
	if err != nil || rows.Len() != 64/groups {
		t.Errorf("group 3 after the run: %v (%v), want %d rows", rows, err, 64/groups)
	}
}
