package sql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdb"
)

// Property: the planner's access-path choices (index point lookups, prefix
// and range scans, full scans) never change query results. Two databases
// with identical data — one fully indexed, one with no secondary indexes —
// must return identical rows for randomly generated queries, and must be
// left identical by randomly generated UPDATE and DELETE statements.

func buildPair(t *testing.T, rng *rand.Rand, rows int) (*DB, *DB) {
	t.Helper()
	ddl := `CREATE TABLE d (id INT PRIMARY KEY, cls TEXT, prop TEXT, val INT, txt TEXT)`
	indexed := Open()
	indexed.MustExec(ddl)
	indexed.MustExec(`CREATE INDEX i_cls ON d (cls)`)
	indexed.MustExec(`CREATE INDEX i_cp ON d (cls, prop)`)
	indexed.MustExec(`CREATE INDEX i_val ON d (val)`)
	indexed.MustExec(`CREATE INDEX i_txt ON d (txt)`)
	plain := Open()
	plain.MustExec(ddl)

	classes := []string{"A", "B", "C"}
	props := []string{"p", "q", "r", "s"}
	for i := 0; i < rows; i++ {
		var valParam rdb.Value = rdb.NewInt(int64(rng.Intn(20)))
		if rng.Intn(10) == 0 {
			valParam = rdb.Null()
		}
		params := []rdb.Value{
			rdb.NewInt(int64(i)),
			rdb.NewText(classes[rng.Intn(len(classes))]),
			rdb.NewText(props[rng.Intn(len(props))]),
			valParam,
			rdb.NewText(fmt.Sprintf("t%d", rng.Intn(15))),
		}
		for _, db := range []*DB{indexed, plain} {
			if _, err := db.Exec(`INSERT INTO d (id, cls, prop, val, txt) VALUES (?, ?, ?, ?, ?)`, params...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return indexed, plain
}

// randomQuery draws a SELECT with random conjuncts that exercise every
// access-path form the planner knows.
func randomQuery(rng *rand.Rand) string {
	return "SELECT id, cls, prop, val, txt FROM d WHERE " + randomWhere(rng)
}

// randomWhere draws the random conjuncts of randomQuery.
func randomWhere(rng *rand.Rand) string {
	var conds []string
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			conds = append(conds, fmt.Sprintf("cls = '%s'", []string{"A", "B", "C", "Z"}[rng.Intn(4)]))
		case 1:
			conds = append(conds, fmt.Sprintf("cls = '%s' AND prop = '%s'",
				[]string{"A", "B"}[rng.Intn(2)], []string{"p", "q"}[rng.Intn(2)]))
		case 2:
			conds = append(conds, fmt.Sprintf("val = %d", rng.Intn(22)))
		case 3:
			conds = append(conds, fmt.Sprintf("val > %d", rng.Intn(20)))
		case 4:
			conds = append(conds, fmt.Sprintf("val <= %d", rng.Intn(20)))
		case 5:
			conds = append(conds, fmt.Sprintf("txt = 't%d'", rng.Intn(16)))
		default:
			conds = append(conds, fmt.Sprintf("id >= %d AND id < %d", rng.Intn(50), 50+rng.Intn(100)))
		}
	}
	return strings.Join(conds, " AND ")
}

// rowStrings renders each row, in result order.
func rowStrings(rows *Rows) []string {
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.Kind.String() + ":" + v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func rowsFingerprint(rows *Rows) []string {
	out := rowStrings(rows)
	sort.Strings(out)
	return out
}

func TestPlannerIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	indexed, plain := buildPair(t, rng, 300)
	for q := 0; q < 300; q++ {
		query := randomQuery(rng)
		r1, err := indexed.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		r2, err := plain.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		f1, f2 := rowsFingerprint(r1), rowsFingerprint(r2)
		if strings.Join(f1, "\n") != strings.Join(f2, "\n") {
			t.Fatalf("plan divergence for %q:\n indexed %d rows\n plain   %d rows", query, len(f1), len(f2))
		}
	}
}

// TestPlannerDMLEquivalence: the same property for UPDATE and DELETE, which
// reach their rows through the same access paths. Each random statement, some
// of them texts run with random parameters, must affect the same
// number of rows on both databases and leave their tables identical.
func TestPlannerDMLEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	paramTexts := []string{
		`UPDATE d SET val = val + 1 WHERE cls = ? AND prop = ?`,
		`UPDATE d SET txt = ? WHERE val >= ? AND val < ?`,
		`DELETE FROM d WHERE txt = ? AND val > ?`,
	}
	var indexed, plain *DB
	txt := func() rdb.Value { return rdb.NewText(fmt.Sprintf("t%d", rng.Intn(16))) }
	for q := 0; q < 200; q++ {
		if q%25 == 0 { // fresh tables before deletes drain them
			indexed, plain = buildPair(t, rng, 300)
		}
		var run func(db *DB) (int, error)
		var desc string
		switch rng.Intn(6) {
		case 0:
			desc = "DELETE FROM d WHERE " + randomWhere(rng)
		case 1:
			desc = fmt.Sprintf("UPDATE d SET val = val %s %d WHERE %s", []string{"+", "-"}[rng.Intn(2)], 1+rng.Intn(2), randomWhere(rng))
		case 2:
			desc = fmt.Sprintf("UPDATE d SET cls = '%s', txt = 't%d' WHERE %s",
				[]string{"A", "B", "C"}[rng.Intn(3)], rng.Intn(16), randomWhere(rng))
		default:
			k := rng.Intn(len(paramTexts))
			params := [][]rdb.Value{
				{rdb.NewText([]string{"A", "B", "C"}[rng.Intn(3)]), rdb.NewText([]string{"p", "q", "r", "s"}[rng.Intn(4)])},
				{txt(), rdb.NewInt(int64(rng.Intn(20))), rdb.NewInt(int64(rng.Intn(25)))},
				{txt(), rdb.NewInt(int64(rng.Intn(20)))},
			}[k]
			desc = fmt.Sprintf("%s %v", paramTexts[k], params)
			run = func(db *DB) (int, error) { return db.Exec(paramTexts[k], params...) }
		}
		if run == nil {
			run = func(db *DB) (int, error) { return db.Exec(desc) }
		}
		n1, err := run(indexed)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		n2, err := run(plain)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if n1 != n2 {
			t.Fatalf("%s: indexed affected %d rows, plain %d", desc, n1, n2)
		}
		const all = `SELECT id, cls, prop, val, txt FROM d`
		r1, err := indexed.Query(all)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := plain.Query(all)
		if err != nil {
			t.Fatal(err)
		}
		if f1, f2 := rowsFingerprint(r1), rowsFingerprint(r2); strings.Join(f1, "\n") != strings.Join(f2, "\n") {
			t.Fatalf("tables diverge after %s:\n indexed %d rows\n plain   %d rows", desc, len(f1), len(f2))
		}
	}
}

// TestPlannerJoinEquivalence: the same property for two-relation joins,
// where the inner relation's access path is chosen from join conjuncts.
func TestPlannerJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	indexed, plain := buildPair(t, rng, 150)
	joins := []string{
		`SELECT a.id, b.id FROM d a, d b WHERE b.val = a.val AND a.cls = 'A'`,
		`SELECT a.id, b.id FROM d a, d b WHERE b.id = a.val AND a.prop = 'p'`,
		`SELECT a.id, b.txt FROM d a, d b WHERE b.txt = a.txt AND a.id < 20`,
		`SELECT a.id, b.id FROM d a, d b WHERE b.cls = a.cls AND b.prop = a.prop AND a.id < 10 AND b.id > 140`,
		`SELECT a.id, b.id FROM d a, d b WHERE b.val > a.val AND a.id < 5 AND b.id < 10`,
	}
	for _, query := range joins {
		r1, err := indexed.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		r2, err := plain.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		f1, f2 := rowsFingerprint(r1), rowsFingerprint(r2)
		if strings.Join(f1, "\n") != strings.Join(f2, "\n") {
			t.Fatalf("join plan divergence for %q:\n indexed %d rows\n plain   %d rows", query, len(f1), len(f2))
		}
	}
}

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{append([]string(nil), xs...)}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

// TestPlannerPermutedJoinEquivalence: the same property for random 3–4
// relation self-joins under every permutation of the FROM list, including
// the permutations whose leading relations share no join conjunct and are
// therefore reordered by the planner. On both databases every permutation
// returns the reference rows; SELECT * expands in the FROM text's order, not
// the join order; and under an ORDER BY that totally orders the rows,
// results match row for row.
func TestPlannerPermutedJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	indexed, plain := buildPair(t, rng, 10)
	dCols := []string{"id", "cls", "prop", "val", "txt"}
	cols := func(alias string) string {
		parts := make([]string, len(dCols))
		for i, c := range dCols {
			parts[i] = alias + "." + c
		}
		return strings.Join(parts, ", ")
	}
	joinCols := [][2]string{{"cls", "cls"}, {"prop", "prop"}, {"val", "val"}, {"txt", "txt"}, {"id", "val"}}
	query := func(db *DB, text string) []string {
		t.Helper()
		rows, err := db.Query(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return rowStrings(rows)
	}
	same := func(a, b []string) bool { return strings.Join(a, "\n") == strings.Join(b, "\n") }
	sorted := func(rows []string) []string { sort.Strings(rows); return rows }

	for q := 0; q < 24; q++ {
		aliases := []string{"a", "b", "c", "d"}[:3+rng.Intn(2)]
		n := len(aliases)
		// A random spanning tree of equality joins, then extra conjuncts:
		// constants, non-equality joins, sometimes a cycle-closing equality.
		var conds []string
		for i := 1; i < n; i++ {
			jc := joinCols[rng.Intn(len(joinCols))]
			conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", aliases[i], jc[0], aliases[rng.Intn(i)], jc[1]))
		}
		for k := rng.Intn(3); k > 0; k-- {
			x, y := aliases[rng.Intn(n)], aliases[rng.Intn(n)]
			switch rng.Intn(4) {
			case 0:
				conds = append(conds, fmt.Sprintf("%s.cls = '%s'", x, []string{"A", "B"}[rng.Intn(2)]))
			case 1:
				conds = append(conds, fmt.Sprintf("%s.val > %s.val", x, y))
			case 2:
				conds = append(conds, fmt.Sprintf("%s.id < %d", x, 3+rng.Intn(8)))
			default:
				conds = append(conds, fmt.Sprintf("%s.prop = %s.prop", x, y))
			}
		}
		rng.Shuffle(len(conds), func(a, b int) { conds[a], conds[b] = conds[b], conds[a] })
		where := " WHERE " + strings.Join(conds, " AND ")
		fromText := func(order []string) string {
			return " FROM d " + strings.Join(order, ", d ")
		}
		var ids []string
		for _, a := range aliases {
			ids = append(ids, a+".id")
		}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		ordered := "SELECT " + strings.Join(ids, ", ") + ", " + aliases[0] + ".val" +
			fromText(aliases) + where + " ORDER BY " + strings.Join(ids, ", ")
		wantOrdered := query(plain, ordered)

		for _, perm := range permutations(aliases) {
			var permCols []string
			for _, a := range perm {
				permCols = append(permCols, cols(a))
			}
			star := "SELECT *" + fromText(perm) + where
			ref := "SELECT " + strings.Join(permCols, ", ") + fromText(aliases) + where
			want := sorted(query(plain, ref))
			for _, db := range []*DB{indexed, plain} {
				if got := sorted(query(db, star)); !same(got, want) {
					t.Fatalf("permuted join divergence for %q:\n got %d rows\n want %d rows (from %q)",
						star, len(got), len(want), ref)
				}
			}
			orderedPerm := strings.Replace(ordered, fromText(aliases), fromText(perm), 1)
			for _, db := range []*DB{indexed, plain} {
				if got := query(db, orderedPerm); !same(got, wantOrdered) {
					t.Fatalf("ORDER BY rows differ for %q:\n got  %v\n want %v", orderedPerm, got, wantOrdered)
				}
			}
		}
	}
}

// TestPlannerNullKeyLookups: NULL never matches through an index, exactly
// as it never matches through a scan.
func TestPlannerNullKeyLookups(t *testing.T) {
	indexed, plain := buildPair(t, rand.New(rand.NewSource(3)), 100)
	for _, query := range []string{
		`SELECT id FROM d WHERE val = NULL`,
		`SELECT a.id FROM d a, d b WHERE b.val = a.val AND a.id = 1`,
		`SELECT id FROM d WHERE val > NULL`,
	} {
		r1, err := indexed.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		r2, err := plain.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if strings.Join(rowsFingerprint(r1), "\n") != strings.Join(rowsFingerprint(r2), "\n") {
			t.Fatalf("NULL divergence for %q", query)
		}
	}
}
