package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mdv/internal/rdb"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	stmts := []string{
		`CREATE TABLE providers (
			id INT PRIMARY KEY,
			host TEXT NOT NULL,
			memory INT,
			cpu INT,
			domain TEXT
		)`,
		`CREATE INDEX idx_providers_memory ON providers (memory)`,
		`CREATE INDEX idx_providers_domain ON providers (domain)`,
		`CREATE TABLE services (
			sid INT PRIMARY KEY,
			pid INT NOT NULL,
			name TEXT,
			price FLOAT
		)`,
		`CREATE INDEX idx_services_pid ON services (pid)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for i := 1; i <= 20; i++ {
		dom := "uni-passau.de"
		if i%2 == 0 {
			dom = "tum.de"
		}
		if _, err := db.Exec(`INSERT INTO providers (id, host, memory, cpu, domain) VALUES (?, ?, ?, ?, ?)`,
			rdb.NewInt(int64(i)), rdb.NewText(fmt.Sprintf("host%02d.%s", i, dom)),
			rdb.NewInt(int64(i*16)), rdb.NewInt(int64(200+i*50)), rdb.NewText(dom)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 40; i++ {
		if _, err := db.Exec(`INSERT INTO services (sid, pid, name, price) VALUES (?, ?, ?, ?)`,
			rdb.NewInt(int64(i)), rdb.NewInt(int64(i%20+1)),
			rdb.NewText(fmt.Sprintf("svc%d", i)), rdb.NewFloat(float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func queryInts(t *testing.T, db *DB, q string, params ...rdb.Value) []int64 {
	t.Helper()
	rows, err := db.Query(q, params...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Int)
	}
	return out
}

func TestCreateInsertSelectBasic(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`SELECT id, host FROM providers WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int != 7 || rows.Data[0][1].Str != "host07.uni-passau.de" {
		t.Fatalf("got %+v", rows.Data)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`SELECT * FROM providers WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || len(rows.Data[0]) != 5 {
		t.Errorf("* expanded to %v", rows.Data)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"memory > 288", 2},   // 304, 320
		{"memory >= 288", 3},  // 288, 304, 320
		{"memory < 32", 1},    // 16
		{"memory <= 32", 2},   // 16, 32
		{"memory = 160", 1},   // id 10
		{"memory != 160", 19}, //
		{"id > 5 AND id <= 8", 3},
		{"domain contains 'passau'", 10},
		{"memory + 16 = 48", 1}, // id 2
		{"id - 1 >= memory - 16", 1},
	}
	for _, c := range cases {
		got := len(queryInts(t, db, "SELECT id FROM providers WHERE "+c.where))
		if got != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, got, c.want)
		}
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	db := testDB(t)
	for cond, want := range map[string]int{
		"memory + 1 = 33":               1, // id 2
		"memory - 2 = 30":               1,
		"memory + 0.5 = 32.5":           1,
		"memory - memory = 0":           20,
		"CAST('42' AS INT) = 42":        20,
		"CAST(memory AS TEXT) = '32'":   1,
		"CAST('3.5' AS FLOAT) = 3.5":    20,
		"CAST(memory AS FLOAT) > 300.5": 2, // 304, 320
	} {
		if got := len(queryInts(t, db, "SELECT id FROM providers WHERE "+cond)); got != want {
			t.Errorf("WHERE %s: got %d rows, want %d", cond, got, want)
		}
	}
	// + on text is an error, not concatenation.
	if _, err := db.Query(`SELECT id FROM providers WHERE host + 'x' = 'y'`); err == nil {
		t.Error("arithmetic on TEXT accepted")
	}
	// INT with INT stays INT (the INT column accepts it); INT with FLOAT is
	// FLOAT (it does not). SET expressions see the row before the update.
	if _, err := db.Exec(`UPDATE providers SET cpu = cpu + 1, memory = memory - 16 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT cpu, memory FROM providers WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0]; got[0].Int != 301 || got[1].Int != 16 {
		t.Errorf("after refcount-style update: %v", got)
	}
	if _, err := db.Exec(`UPDATE providers SET memory = memory + 0.5 WHERE id = 2`); err == nil {
		t.Error("FLOAT result stored in an INT column")
	}
}

func TestNullSemantics(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a INT, b INT)`)
	for _, r := range [][]rdb.Value{{rdb.NewInt(1), rdb.Null()}, {rdb.Null(), rdb.NewInt(2)}, {rdb.NewInt(3), rdb.NewInt(3)}} {
		db.MustExec(`INSERT INTO t (a, b) VALUES (?, ?)`, r...)
	}
	for cond, want := range map[string]int{
		// A comparison with NULL is never true, whatever the operator.
		"b = NULL":  0,
		"b != NULL": 0,
		"b != 2":    1,
		"b < 5":     2,
		// Arithmetic and CONTAINS over NULL are NULL.
		"b + 1 > 0":          2,
		"a CONTAINS '1'":     1,
		"CAST(b AS INT) = b": 2,
		// A NULL condition selects nothing.
		"b": 2,
	} {
		if n := len(queryInts(t, db, `SELECT a FROM t WHERE `+cond)); n != want {
			t.Errorf("WHERE %s matched %d rows, want %d", cond, n, want)
		}
	}
}

func TestJoinImplicit(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`
		SELECT p.id, s.sid FROM providers p, services s
		WHERE s.pid = p.id AND p.memory > 288`)
	if err != nil {
		t.Fatal(err)
	}
	// Providers 19 and 20 each have 2 services.
	if rows.Len() != 4 {
		t.Fatalf("join returned %d rows", rows.Len())
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE TABLE tags (sid INT, tag TEXT)`)
	db.MustExec(`INSERT INTO tags (sid, tag) VALUES (1, 'fast')`)
	db.MustExec(`INSERT INTO tags (sid, tag) VALUES (1, 'cheap')`)
	db.MustExec(`INSERT INTO tags (sid, tag) VALUES (2, 'fast')`)
	rows, err := db.Query(`
		SELECT p.id, s.sid, g.tag
		FROM providers p, services s, tags g
		WHERE s.pid = p.id AND g.sid = s.sid AND g.tag = 'fast'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("got %d rows", rows.Len())
	}
}

func TestSelfJoin(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`
		SELECT a.id, b.id FROM providers a, providers b
		WHERE a.memory = b.memory AND a.id != b.id`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("distinct memories, expected empty join, got %d", rows.Len())
	}
	rows, err = db.Query(`
		SELECT a.id, b.id FROM providers a, providers b
		WHERE b.id = a.id AND a.id <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("self equi-join got %d rows", rows.Len())
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := testDB(t)
	ids := queryInts(t, db, `SELECT id FROM providers ORDER BY memory LIMIT 3`)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("ORDER BY LIMIT: %v", ids)
	}
	// Several keys, one of them not projected.
	ids = queryInts(t, db, `SELECT id FROM providers p ORDER BY p.domain, memory LIMIT 3`)
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 4 || ids[2] != 6 {
		t.Errorf("ORDER BY two keys: %v", ids)
	}
	// LIMIT without ORDER BY stops the streaming join.
	if ids = queryInts(t, db, `SELECT id FROM providers WHERE memory > 100 LIMIT 2`); len(ids) != 2 {
		t.Errorf("streaming LIMIT: %v", ids)
	}
	if ids = queryInts(t, db, `SELECT id FROM providers LIMIT 0`); len(ids) != 0 {
		t.Errorf("LIMIT 0: %v", ids)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`SELECT DISTINCT domain FROM providers`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Errorf("DISTINCT got %d rows", rows.Len())
	}
	rows, err = db.Query(`SELECT DISTINCT domain FROM providers ORDER BY domain`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Data[0][0].Str != "tum.de" {
		t.Errorf("DISTINCT+ORDER: %+v", rows.Data)
	}
	// -0 and +0 compare equal: DISTINCT keeps one of them, and an index
	// lookup of one finds both.
	db.MustExec(`CREATE TABLE f (x FLOAT)`)
	db.MustExec(`CREATE INDEX i_x ON f (x)`)
	for _, v := range []float64{0, math.Copysign(0, -1)} {
		db.MustExec(`INSERT INTO f (x) VALUES (?)`, rdb.NewFloat(v))
	}
	for q, want := range map[string]int{
		`SELECT DISTINCT x FROM f`:      1,
		`SELECT x FROM f WHERE x = 0.0`: 2,
	} {
		if rows, err = db.Query(q); err != nil {
			t.Fatal(err)
		}
		if rows.Len() != want {
			t.Errorf("%s: %d rows, want %d", q, rows.Len(), want)
		}
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec(`UPDATE providers SET memory = memory + memory WHERE domain = 'tum.de'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("updated %d rows", n)
	}
	// The index reflects the new values: tum.de has the even ids, so id 2
	// goes 32 -> 64 and id 4, which had 64, goes to 128.
	if ids := queryInts(t, db, `SELECT id FROM providers WHERE memory = 64`); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("post-update index lookup: %v", ids)
	}
	// UPDATE without WHERE hits everything.
	n, err = db.Exec(`UPDATE providers SET cpu = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("unconditional update: %d", n)
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec(`DELETE FROM services WHERE pid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deleted %d", n)
	}
	n, err = db.Exec(`DELETE FROM services`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 38 {
		t.Errorf("deleted %d", n)
	}
	if ids := queryInts(t, db, `SELECT sid FROM services`); len(ids) != 0 {
		t.Errorf("rows after delete: %v", ids)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`INSERT INTO providers (id, host) VALUES (99, 'partial')`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT memory FROM providers WHERE id = 99`)
	if err != nil || rows.Len() != 1 || !rows.Data[0][0].IsNull() {
		t.Errorf("unlisted column = %v (%v), want NULL", rows, err)
	}
	// Omitting a NOT NULL column fails.
	if _, err := db.Exec(`INSERT INTO providers (id) VALUES (100)`); err == nil {
		t.Error("NOT NULL violation accepted")
	}
}

func TestPreparedStatements(t *testing.T) {
	db := testDB(t)
	const sel = `SELECT id FROM providers WHERE memory = ? AND domain = ?`
	for i := 1; i <= 20; i++ {
		dom := "uni-passau.de"
		if i%2 == 0 {
			dom = "tum.de"
		}
		rows, err := db.Query(sel, rdb.NewInt(int64(i*16)), rdb.NewText(dom))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 1 || rows.Data[0][0].Int != int64(i) {
			t.Fatalf("i=%d: %+v", i, rows.Data)
		}
	}
	// DML with parameters.
	if _, err := db.Exec(insertService, rdb.NewInt(100), rdb.NewInt(1), rdb.NewText("x"), rdb.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	// Plan survives DDL via re-validation.
	db.MustExec(`CREATE TABLE unrelated (x INT)`)
	rows, err := db.Query(sel, rdb.NewInt(16), rdb.NewText("uni-passau.de"))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("after DDL: %d rows", rows.Len())
	}
}

// TestPreparedDMLPlanCache: an UPDATE or DELETE text compiles its plan
// once and reuses it until DDL runs; the rebuilt plan takes the index the
// DDL created.
func TestPreparedDMLPlanCache(t *testing.T) {
	db := testDB(t)
	upd := `UPDATE services SET price = price + 1.0 WHERE name = ?`
	del := `DELETE FROM services WHERE name = ?`
	exec := func(text, name string) *dmlPlan {
		t.Helper()
		if n, err := db.Exec(text, rdb.NewText(name)); err != nil || n != 1 {
			t.Fatalf("%s: %d rows (%v), want 1", name, n, err)
		}
		return tableEntry(db, text).cached.Load().plan.(*dmlPlan)
	}
	for _, st := range []string{upd, del} {
		first := exec(st, "svc1")
		if first.rel.access.kind != accessFullScan {
			t.Fatalf("no index on name, yet access kind %d", first.rel.access.kind)
		}
		if exec(st, "svc2") != first {
			t.Error("plan rebuilt although no DDL ran")
		}
	}
	db.MustExec(`CREATE INDEX idx_services_name ON services (name)`)
	for _, st := range []string{upd, del} {
		if p := exec(st, "svc3"); p.rel.access.kind != accessIndexPoint {
			t.Errorf("after CREATE INDEX: access kind %d, want a point lookup", p.rel.access.kind)
		}
	}
}

func TestQueryFuncStreaming(t *testing.T) {
	db := testDB(t)
	var got []int64
	err := db.QueryFunc(`SELECT id FROM providers WHERE id <= 5`, nil, func(row []rdb.Value) error {
		got = append(got, row[0].Int)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("streamed %d rows", len(got))
	}
	// Early abort via error.
	n := 0
	sentinel := fmt.Errorf("stop")
	err = db.QueryFunc(`SELECT id FROM providers`, nil, func([]rdb.Value) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 3 {
		t.Errorf("abort: err=%v n=%d", err, n)
	}
}

func TestIfNotExistsAndIfExists(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`CREATE TABLE providers (id INT)`); err == nil {
		t.Error("duplicate CREATE TABLE accepted")
	}
	if _, err := db.Exec(`CREATE INDEX idx_providers_memory ON providers (memory)`); err == nil {
		t.Error("duplicate CREATE INDEX accepted")
	}
	if _, err := db.Exec(`DROP TABLE IF EXISTS nonexistent`); err != nil {
		t.Errorf("DROP IF EXISTS: %v", err)
	}
	if _, err := db.Exec(`DROP TABLE nonexistent`); err == nil {
		t.Error("DROP of missing table accepted")
	}
}

// badStatements are rejected by Parse: malformed input, and one statement
// per construct outside the dialect, which must fail rather than be read as
// something else (a word outside the keyword list is an identifier, so
// "FROM t GROUP BY" must not parse as a table aliased GROUP).
var badStatements = []string{
	``,
	`SELEC id FROM t`,
	`SELECT FROM t`,
	`SELECT id FROM`,
	`SELECT id FROM t WHERE`,
	`INSERT INTO`,
	`INSERT INTO t VALUES`,
	`CREATE TABLE`,
	`CREATE TABLE t`,
	`CREATE TABLE t ()`,
	`CREATE TABLE t (a UNKNOWNTYPE)`,
	`SELECT 'unterminated FROM t`,
	`SELECT id FROM t; SELECT 2`,
	`SELECT id id2 id3 FROM t`,
	`UPDATE t`,
	`DELETE t`,
	`SELECT a FROM t WHERE a @ 3`,
	`CREATE TABLE t (a INT UNIQUE)`,
	`CREATE UNIQUE TABLE t (a INT)`,
	`SELECT a FROM t LIMIT 99999999999999999999`,
	// Clauses.
	`SELECT a FROM t GROUP BY a`,
	`SELECT a FROM t g GROUP BY a`,
	`SELECT a FROM t HAVING a > 1`,
	`SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 2`,
	`SELECT a FROM t ORDER BY a DESC`,
	`SELECT a FROM t ORDER BY a ASC`,
	`SELECT a FROM t ORDER BY 1`,
	// Joins and inserts.
	`SELECT a FROM t JOIN u ON t.a = u.a`,
	`SELECT a FROM t INNER JOIN u ON t.a = u.a`,
	`INSERT INTO t (a) SELECT a FROM u`,
	`INSERT INTO t (a) VALUES (1), (2)`,
	// Expressions.
	`SELECT a FROM t WHERE a = 1 OR a = 2`,
	`SELECT a FROM t WHERE NOT a = 1`,
	`SELECT a FROM t WHERE a IS NULL`,
	`SELECT a FROM t WHERE a IS NOT NULL`,
	`SELECT a FROM t WHERE a IN (1, 2)`,
	`SELECT a FROM t WHERE a NOT IN (1, 2)`,
	`SELECT a FROM t WHERE a LIKE 'x%'`,
	`SELECT a FROM t WHERE a NOT CONTAINS 'x'`,
	`SELECT a FROM t WHERE a * 2 = 4`,
	`SELECT a FROM t WHERE a / 2 = 4`,
	`SELECT a FROM t WHERE a % 2 = 0`,
	`SELECT a FROM t WHERE a = -1`,
	`SELECT a FROM t WHERE (a = 1)`,
	`SELECT a FROM t WHERE a <> 1`,
	`SELECT a FROM t WHERE a == 1`,
	`SELECT a FROM t WHERE a = 1.5e3`,
	`SELECT a FROM t WHERE LOWER(a) = 'x'`,
	`SELECT a FROM t WHERE UPPER(a) = 'X'`,
	`SELECT a FROM t WHERE LENGTH(a) = 1`,
	`SELECT a FROM t WHERE ABS(a) = 1`,
	`SELECT a FROM t WHERE COALESCE(a, 1) = 1`,
	`SELECT a FROM t -- comment`,
	// Aggregates and select-list features.
	`SELECT COUNT(*) FROM t`,
	`SELECT COUNT(a) FROM t`,
	`SELECT SUM(a) FROM t`,
	`SELECT AVG(a) FROM t`,
	`SELECT MIN(a) FROM t`,
	`SELECT MAX(a) FROM t`,
	`SELECT a + 1 FROM t`,
	`SELECT a AS b FROM t`,
	`SELECT a b FROM t`,
	`SELECT t.* FROM t`,
	`SELECT * FROM t AS u`,
	// DDL.
	`CREATE TABLE IF NOT EXISTS t (a INT)`,
	`CREATE INDEX IF NOT EXISTS i ON t (a)`,
	`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
	`DROP INDEX i ON t`,
	`CREATE TABLE t (a VARCHAR(8))`,
	`CREATE TABLE t (a INTEGER)`,
	`CREATE TABLE t (a REAL)`,
	`CREATE TABLE t (a DOUBLE)`,
	`CREATE TABLE t (a STRING)`,
	`CREATE TABLE t (a BOOLEAN)`,
	`CREATE INDEX i ON t (a) USING BTREE`,
}

func TestParseErrors(t *testing.T) {
	for _, q := range badStatements {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted bad statement: %q", q)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		`SELECT nope FROM providers`,
		`SELECT id FROM nonexistent`,
		`SELECT x.id FROM providers p`,
		`SELECT sid FROM providers`,
		`SELECT id FROM providers p, providers p`,
		`SELECT id FROM providers ORDER BY nope`,
		`SELECT id FROM providers WHERE host`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("accepted bad query: %q", q)
		}
	}
	for _, q := range []string{
		`INSERT INTO providers (nope) VALUES (1)`,
		`INSERT INTO providers (id) VALUES (1, 2)`,
		`UPDATE providers SET nope = 1`,
		`SELECT id FROM providers`,
		// A TEXT condition is an error in DML exactly as in a SELECT, not a
		// condition that silently matches nothing.
		`DELETE FROM providers WHERE host`,
		`UPDATE providers SET cpu = 0 WHERE domain`,
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("accepted bad statement: %q", q)
		}
	}
	if ids := queryInts(t, db, `SELECT id FROM providers WHERE cpu = 0`); len(ids) != 0 {
		t.Errorf("failed UPDATE changed rows %v", ids)
	}
	// Ambiguity check with genuinely ambiguous column.
	db.MustExec(`CREATE TABLE dup1 (v INT)`)
	db.MustExec(`CREATE TABLE dup2 (v INT)`)
	if _, err := db.Query(`SELECT v FROM dup1, dup2`); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column: %v", err)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`select ID, HOST from PROVIDERS where MEMORY = 16`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("case-insensitive query: %d rows", rows.Len())
	}
}

func TestContainsOperator(t *testing.T) {
	db := testDB(t)
	ids := queryInts(t, db, `SELECT id FROM providers WHERE host CONTAINS 'host07'`)
	if len(ids) != 1 || ids[0] != 7 {
		t.Errorf("CONTAINS: %v", ids)
	}
	// The text form of a number contains its digits.
	if ids = queryInts(t, db, `SELECT id FROM providers WHERE memory CONTAINS '32'`); len(ids) != 2 {
		t.Errorf("CONTAINS on INT: %v", ids) // 32 and 320
	}
}

// TestDistinctKeepsIntegersAbove2To53: DISTINCT tells apart INT values that
// round to the same float64.
func TestDistinctKeepsIntegersAbove2To53(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE big (x INT NOT NULL)`)
	for _, x := range []int64{1 << 53, 1<<53 + 1, 1<<53 + 1} {
		db.MustExec(`INSERT INTO big (x) VALUES (?)`, rdb.NewInt(x))
	}
	got := queryInts(t, db, `SELECT DISTINCT x FROM big ORDER BY x`)
	if want := []int64{1 << 53, 1<<53 + 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SELECT DISTINCT = %v, want %v", got, want)
	}
}

// TestReadTxnQueryStmt: a SELECT run inside a read transaction uses the
// plan the statement table holds for its text, built outside it.
func TestReadTxnQueryStmt(t *testing.T) {
	db := openWith(t, `CREATE TABLE kv (k TEXT PRIMARY KEY, v INT NOT NULL)`)
	mustExec(t, db, `INSERT INTO kv (k, v) VALUES ('a', 1)`)
	mustExec(t, db, `INSERT INTO kv (k, v) VALUES ('b', 2)`)
	const sel = `SELECT v FROM kv WHERE k = ?`
	if _, err := db.Query(sel, rdb.NewText("a")); err != nil {
		t.Fatal(err)
	}
	plan := tableEntry(db, sel).cached.Load()
	err := db.View(func(txn *ReadTxn) error {
		var got []int64
		for _, k := range []string{"a", "b", "c"} {
			if err := txn.QueryFunc(sel, []rdb.Value{rdb.NewText(k)}, func(row []rdb.Value) error {
				got = append(got, row[0].Int)
				return nil
			}); err != nil {
				return err
			}
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Errorf("got %v, want [1 2]", got)
		}
		if tableEntry(db, sel).cached.Load() != plan {
			t.Error("the transaction rebuilt the text's plan")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
