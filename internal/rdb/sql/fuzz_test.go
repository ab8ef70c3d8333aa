package sql

import "testing"

// FuzzParse: Parse never panics on any input, and a SELECT, UPDATE or
// DELETE it accepts is either planned or refused with an error against the
// filter engine's and the LMR cache's catalogue, never a panic; a planned
// UPDATE or DELETE also runs over the empty tables without a panic. Seeds are every statement shape
// the planner tests pin, the DDL they run, and the rejected inputs of
// TestParseErrors. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/rdb/sql
func FuzzParse(f *testing.F) {
	ddl := append(append([]string(nil), engineDDL...), cacheDDL...)
	seeds := append(append(append([]string(nil), ddl...), engineStatements...), badStatements...)
	seeds = append(seeds, pathQuery,
		`INSERT INTO Cache VALUES (?, 'CycleProvider', TRUE)`,
		`INSERT INTO RuleResults (rule_id, uri_reference) VALUES (?, ?)`,
		`UPDATE JoinRules SET group_id = group_id - 1 WHERE rule_id = ?`,
		`DELETE FROM RuleResults WHERE rule_id = ? AND uri_reference = ?`,
		`SELECT rule_id FROM RuleResults WHERE rule_id = ? AND uri_reference = ? LIMIT 1`,
		`SELECT uri_reference FROM Statements WHERE class = ? AND property = ? AND CAST(value AS FLOAT) >= CAST(? AS FLOAT)`,
		`SELECT * FROM Cache ORDER BY uri_reference`,
		`DROP TABLE IF EXISTS FilterData`,
	)
	for _, s := range seeds {
		f.Add(s)
	}
	db := openWith(f, ddl...)
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		var dml *dmlPlan
		switch s := st.(type) {
		case *SelectStmt:
			if p, err := buildSelectPlan(db.Raw(), s); err == nil && p == nil {
				t.Fatalf("no plan and no error for %q", src)
			}
			return
		case *UpdateStmt:
			dml, err = db.planDML(s.Table, s.Set, s.Where)
		case *DeleteStmt:
			dml, err = db.planDML(s.Table, nil, s.Where)
		default:
			return
		}
		if err == nil && dml == nil {
			t.Fatalf("no plan and no error for %q", src)
		}
		if err == nil {
			dml.run(nil)
		}
	})
}
