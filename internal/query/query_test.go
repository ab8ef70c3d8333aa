package query

import (
	"fmt"
	"strings"
	"testing"

	"mdv/internal/metrics"
	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

func translateSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{
		Name: "serverInformation", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	return s
}

func normalize(t *testing.T, src string) *rules.NormalRule {
	t.Helper()
	r, err := rules.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nrs, err := rules.Normalize(r, translateSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nrs) != 1 {
		t.Fatalf("expected one normalized rule, got %d", len(nrs))
	}
	return nrs[0]
}

// TestTranslateShapes checks the SQL the translator emits for the main
// operand combinations (§2.2: "search requests are translated into SQL
// join queries").
func TestTranslateShapes(t *testing.T) {
	cases := []struct {
		rule       string
		wantParts  []string
		paramCount int
	}{
		{
			`search CycleProvider c register c`,
			[]string{"SELECT DISTINCT r0.uri_reference", "FROM Cache r0", "r0.class = ?"},
			1,
		},
		{
			`search CycleProvider c register c where c.serverPort = 80`,
			[]string{"FROM CacheStatements p1, Cache r0", "p1.class = ?", "p1.property = ?", "p1.num_value = ?"},
			4,
		},
		{
			`search CycleProvider c register c where c.serverHost contains 'de'`,
			[]string{"FROM CacheStatements p1, Cache r0", "p1.class = ?", "p1.value CONTAINS ?"},
			4,
		},
		{
			`search CycleProvider c register c where c = 'doc.rdf#host'`,
			[]string{"FROM Cache r0 WHERE", "r0.uri_reference = ?"},
			2,
		},
		{
			`search CycleProvider c, ServerInformation s register c
			 where c.serverInformation = s and s.memory > 64`,
			[]string{"FROM CacheStatements p2, Cache r0, Cache r1, CacheStatements p1",
				"p1.value = r1.uri_reference", "p2.class = ?", "p2.num_value > ?"},
			7,
		},
	}
	for _, c := range cases {
		nr := normalize(t, c.rule)
		text, params, err := Translate(nr, translateSchema())
		if err != nil {
			t.Fatalf("%s: %v", c.rule, err)
		}
		for _, part := range c.wantParts {
			if !strings.Contains(text, part) {
				t.Errorf("rule %q:\n sql %q\n missing %q", c.rule, text, part)
			}
		}
		if len(params) != c.paramCount {
			t.Errorf("rule %q: %d params, want %d (%v)", c.rule, len(params), c.paramCount, params)
		}
		// Placeholder count matches the parameter list.
		if got := strings.Count(text, "?"); got != len(params) {
			t.Errorf("rule %q: %d placeholders vs %d params", c.rule, got, len(params))
		}
	}
}

// TestTranslateConstLeftParamOrder regression-tests the parameter ordering
// when the constant is the left operand.
func TestTranslateConstLeftParamOrder(t *testing.T) {
	db := sql.Open()
	for _, stmt := range []string{
		`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`,
		`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
			property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`,
	} {
		db.MustExec(stmt)
	}
	db.MustExec(`INSERT INTO Cache (uri_reference, class, local) VALUES ('d#1', 'CycleProvider', FALSE)`)
	db.MustExec(`INSERT INTO CacheStatements (uri_reference, class, property, value, num_value, is_ref)
		VALUES ('d#1', 'CycleProvider', 'serverPort', '99', 99.0, FALSE)`)

	ev := NewEvaluator(db, translateSchema())
	uris, err := ev.EvaluateURIs(`search CycleProvider c register c where 50 < c.serverPort`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 1 {
		t.Errorf("const-left: %v", uris)
	}
	uris, err = ev.EvaluateURIs(`search CycleProvider c register c where 150 < c.serverPort`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 0 {
		t.Errorf("const-left negative: %v", uris)
	}
}

// TestEvaluatorErrors: malformed queries surface as errors.
func TestEvaluatorErrors(t *testing.T) {
	db := sql.Open()
	db.MustExec(`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`)
	db.MustExec(`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
		property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`)
	ev := NewEvaluator(db, translateSchema())
	for _, q := range []string{
		`not a query`,
		`search Unknown u register u`,
		`search CycleProvider c register c where c.nope = 1`,
	} {
		if _, err := ev.Evaluate(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

// TestEvaluatorResourceReconstruction: results carry full property sets.
func TestEvaluatorResourceReconstruction(t *testing.T) {
	db := sql.Open()
	db.MustExec(`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`)
	db.MustExec(`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
		property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`)
	db.MustExec(`INSERT INTO Cache (uri_reference, class, local) VALUES ('d#1', 'CycleProvider', FALSE)`)
	for _, row := range [][3]interface{}{
		{"serverHost", "h.example.org", false},
		{"serverPort", "80", false},
		{"serverInformation", "d#si", true},
	} {
		db.MustExec(`INSERT INTO CacheStatements (uri_reference, class, property, value, is_ref)
			VALUES ('d#1', 'CycleProvider', ?, ?, ?)`,
			rdb.NewText(row[0].(string)), rdb.NewText(row[1].(string)), rdb.NewBool(row[2].(bool)))
	}
	ev := NewEvaluator(db, translateSchema())
	rs, err := ev.Evaluate(`search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	r := rs[0]
	if r.Class != "CycleProvider" || len(r.Props) != 3 {
		t.Errorf("reconstructed resource: %+v", r)
	}
	if v, _ := r.Get("serverInformation"); v.Kind != rdf.ResourceRef || v.Ref != "d#si" {
		t.Errorf("reference property lost: %+v", v)
	}
}

// TestQueryShapePlannedOnce: a query's constants are parameters of its SQL
// text, so repeating a query shape with other constants reuses the plan the
// database's statement table holds: no plan miss after the first query of
// each shape.
func TestQueryShapePlannedOnce(t *testing.T) {
	db := sql.Open()
	db.MustExec(`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`)
	db.MustExec(`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
		property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`)
	db.MustExec(`CREATE INDEX idx_cstmt_cpn ON CacheStatements (class, property, num_value)`)
	for port := 80; port < 84; port++ {
		uri := rdb.NewText(fmt.Sprintf("d#%d", port))
		db.MustExec(`INSERT INTO Cache (uri_reference, class, local) VALUES (?, 'CycleProvider', FALSE)`, uri)
		db.MustExec(`INSERT INTO CacheStatements (uri_reference, class, property, value, num_value, is_ref)
			VALUES (?, 'CycleProvider', 'serverPort', ?, ?, FALSE)`,
			uri, rdb.NewText(fmt.Sprint(port)), rdb.NewFloat(float64(port)))
	}
	reg := metrics.NewRegistry()
	db.EnableMetrics(reg)
	misses := reg.Counter("mdv_sql_plan_cache_total", "", metrics.L("result", "miss"))
	hits := reg.Counter("mdv_sql_plan_cache_total", "", metrics.L("result", "hit"))
	ev := NewEvaluator(db, translateSchema())
	shapes := []string{
		`search CycleProvider c register c where c.serverPort = %[1]d`,
		`search CycleProvider c register c where c.serverPort > %[1]d and c.serverHost contains 'x%[1]d'`,
	}
	var firstMisses, firstHits uint64
	ports := []int{80, 81, 82, 83}
	for round, port := range ports {
		for _, shape := range shapes {
			if _, err := ev.EvaluateURIs(fmt.Sprintf(shape, port)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			firstMisses, firstHits = misses.Value(), hits.Value()
		}
	}
	if firstMisses != uint64(len(shapes)) || misses.Value() != firstMisses {
		t.Errorf("plan misses: %d after the first round, %d after all; want %d both times",
			firstMisses, misses.Value(), len(shapes))
	}
	if want := firstHits + uint64((len(ports)-1)*len(shapes)); hits.Value() != want {
		t.Errorf("plan hits: %d, want %d", hits.Value(), want)
	}
}
