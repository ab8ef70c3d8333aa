package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdv/internal/rdb"
)

// Join order: FROM order, except that the next relation placed is the first
// remaining one an `=` conjunct keys on the relations already placed.

// planOrder lists a plan's relation aliases in join order.
func planOrder(p *selectPlan) string {
	aliases := make([]string, len(p.rels))
	for i, rel := range p.rels {
		aliases[i] = rel.binding.alias
	}
	return strings.Join(aliases, ",")
}

// openWith opens a database and runs the given DDL.
func openWith(t testing.TB, ddl ...string) *DB {
	t.Helper()
	db := Open()
	for _, stmt := range ddl {
		mustExec(t, db, stmt)
	}
	return db
}

// cacheDDL is the LMR cache schema the query language runs over, with the
// repository's indexes (internal/repository imports this package, so the
// statements are restated here).
var cacheDDL = []string{
	`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`,
	`CREATE INDEX idx_cache_class ON Cache (class)`,
	`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
		property TEXT NOT NULL, value TEXT NOT NULL, is_ref BOOL NOT NULL)`,
	`CREATE INDEX idx_cstmt_uri ON CacheStatements (uri_reference, property)`,
	`CREATE INDEX idx_cstmt_cpv ON CacheStatements (class, property, value)`,
}

// pathQuery is the query language's translation of
// "search CycleProvider c register c where c.serverInformation.memory = ?":
// both Cache anchors first, then the statements linking and constraining them.
const pathQuery = `SELECT DISTINCT r0.uri_reference
	FROM Cache r0, Cache r1, CacheStatements p1, CacheStatements p2
	WHERE r0.class = ? AND r1.class = ?
	AND p1.uri_reference = r0.uri_reference AND p1.property = ? AND p1.value = r1.uri_reference
	AND p2.uri_reference = r1.uri_reference AND p2.property = ?
	AND CAST(p2.value AS FLOAT) = CAST(? AS FLOAT)`

func TestPlanJoinsPathQueryAlongItsLinks(t *testing.T) {
	db := openWith(t, cacheDDL...)
	plan := planOf(t, db, pathQuery)
	if got := planOrder(plan); got != "r0,p1,r1,p2" {
		t.Fatalf("join order %s, want r0,p1,r1,p2", got)
	}
	// Each later relation is a point lookup on an index led by
	// uri_reference, a column no constant conjunct binds: its key comes from
	// the relation placed before it (p1 from r0, r1 from p1, p2 from r1).
	want := []string{"", "idx_cstmt_uri", "Cache_pk", "idx_cstmt_uri"}
	for i, rel := range plan.rels[1:] {
		ap := rel.access
		if ap.kind != accessIndexPoint || ap.index.Def.Name != want[i+1] {
			name := "<none>"
			if ap.index != nil {
				name = ap.index.Def.Name
			}
			t.Errorf("%s: access kind %d on %s, want a point lookup on %s",
				rel.binding.alias, ap.kind, name, want[i+1])
		}
	}

	for i, mem := range []string{"92", "64", "92", "128"} {
		host, info := fmt.Sprintf("host%d", i), fmt.Sprintf("info%d", i)
		mustExec(t, db, `INSERT INTO Cache VALUES (?, 'CycleProvider', TRUE)`, rdb.NewText(host))
		mustExec(t, db, `INSERT INTO Cache VALUES (?, 'ServerInformation', TRUE)`, rdb.NewText(info))
		mustExec(t, db, `INSERT INTO CacheStatements VALUES (?, 'CycleProvider', 'serverInformation', ?, TRUE)`,
			rdb.NewText(host), rdb.NewText(info))
		mustExec(t, db, `INSERT INTO CacheStatements VALUES (?, 'ServerInformation', 'memory', ?, FALSE)`,
			rdb.NewText(info), rdb.NewText(mem))
	}
	rows, err := db.Query(pathQuery, rdb.NewText("CycleProvider"), rdb.NewText("ServerInformation"),
		rdb.NewText("serverInformation"), rdb.NewText("memory"), rdb.NewText("92"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowsFingerprint(rows), " "); got != "TEXT:host0 TEXT:host2" {
		t.Fatalf("path query returned %s, want host0 and host2", got)
	}
}

// engineDDL holds the filter engine's tables that its multi-relation
// statements join, with the engine's indexes.
var engineDDL = []string{
	`CREATE TABLE Statements (uri_reference TEXT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL,
		value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`,
	`CREATE INDEX idx_stmt_uri ON Statements (uri_reference, property)`,
	`CREATE INDEX idx_stmt_cpv ON Statements (class, property, value)`,
	`CREATE INDEX idx_stmt_cpn ON Statements (class, property, num_value)`,
	`CREATE INDEX idx_stmt_value ON Statements (value)`,
	`CREATE TABLE FilterData (uri_reference TEXT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL,
		value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`,
	`CREATE INDEX idx_fd_cp ON FilterData (class, property)`,
	`CREATE INDEX idx_fd_uri ON FilterData (uri_reference)`,
	`CREATE TABLE FilterRulesANY (rule_id INT NOT NULL, class TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_any ON FilterRulesANY (class)`,
	`CREATE TABLE FilterRulesEQ (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_eq ON FilterRulesEQ (class, property, value)`,
	`CREATE TABLE FilterRulesCON (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_con ON FilterRulesCON (class, property)`,
	`CREATE TABLE FilterRulesLT (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL,
		value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_lt ON FilterRulesLT (class, property, num_value)`,
	`CREATE TABLE JoinRules (rule_id INT PRIMARY KEY, left_rule INT NOT NULL, right_rule INT NOT NULL, group_id INT NOT NULL)`,
	`CREATE INDEX idx_jr_group ON JoinRules (group_id)`,
	`CREATE INDEX idx_jr_left ON JoinRules (left_rule)`,
	`CREATE INDEX idx_jr_right ON JoinRules (right_rule)`,
	`CREATE INDEX idx_jr_lr ON JoinRules (left_rule, right_rule)`,
	`CREATE TABLE GroupFeeds (source_rule INT NOT NULL, side TEXT NOT NULL, group_id INT NOT NULL)`,
	`CREATE UNIQUE INDEX idx_gf_pk ON GroupFeeds (source_rule, side, group_id)`,
	`CREATE INDEX idx_gf_group ON GroupFeeds (group_id)`,
	`CREATE TABLE RuleResults (rule_id INT NOT NULL, uri_reference TEXT NOT NULL)`,
	`CREATE UNIQUE INDEX idx_rr_pk ON RuleResults (rule_id, uri_reference)`,
	`CREATE INDEX idx_rr_rule ON RuleResults (rule_id)`,
	`CREATE INDEX idx_rr_uri ON RuleResults (uri_reference)`,
	`CREATE TABLE ResultObjects (uri_reference TEXT NOT NULL, rule_id INT NOT NULL)`,
	`CREATE INDEX idx_ro_rule ON ResultObjects (rule_id)`,
	`CREATE TABLE Subscriptions (sub_id INT PRIMARY KEY, subscriber TEXT NOT NULL, rule_text TEXT NOT NULL)`,
	`CREATE TABLE SubscriptionEndRules (sub_id INT NOT NULL, end_rule INT NOT NULL)`,
	`CREATE INDEX idx_ser_end ON SubscriptionEndRules (end_rule)`,
	`CREATE INDEX idx_ser_sub ON SubscriptionEndRules (sub_id)`,
}

// trig is a triggering statement of one FilterRules table.
func trig(table, cond string) string {
	return `SELECT fr.rule_id, fd.uri_reference FROM FilterData fd, ` + table + ` fr WHERE ` + cond
}

// classProp is the (class, property) match every triggering statement but
// ANY's starts with.
const classProp = "fr.class = fd.class AND fr.property = fd.property"

// engineStatements holds one statement of every shape of multi-relation
// statement the filter engine and the query language issue
// (internal/core's triggering, group-delta, full-join, feed and subscription
// queries; query.Translate with one variable).
var engineStatements = []string{
	// Triggering (one per operator form).
	trig("FilterRulesANY", "fd.property = 'rdf#subject' AND fr.class = fd.class"),
	trig("FilterRulesEQ", classProp+" AND fr.value = fd.value"),
	trig("FilterRulesCON", classProp+" AND fd.value CONTAINS fr.value"),
	trig("FilterRulesLT", classProp+" AND fd.num_value < fr.num_value"),
	trig("FilterRulesLT", classProp+" AND CAST(fd.value AS FLOAT) < CAST(fr.value AS FLOAT)"),
	// Group delta, equi-join: partner by URI, by string value, by typed
	// numeric value, and with a bare delta resource.
	`SELECT jr.rule_id, ro.uri_reference FROM ResultObjects ro, Statements sd, RuleResults rr, JoinRules jr
		WHERE sd.uri_reference = ro.uri_reference AND sd.property = ? AND rr.uri_reference = sd.value
		AND jr.left_rule = ro.rule_id AND jr.right_rule = rr.rule_id AND jr.group_id = ?`,
	`SELECT jr.rule_id, rr.uri_reference FROM ResultObjects ro, Statements sd, Statements sf, RuleResults rr, JoinRules jr
		WHERE sd.uri_reference = ro.uri_reference AND sd.property = ?
		AND sf.class = ? AND sf.property = ? AND sf.value = sd.value AND rr.uri_reference = sf.uri_reference
		AND jr.right_rule = ro.rule_id AND jr.left_rule = rr.rule_id AND jr.group_id = ?`,
	`SELECT jr.rule_id, ro.uri_reference FROM ResultObjects ro, Statements sd, Statements sf, RuleResults rr, JoinRules jr
		WHERE sd.uri_reference = ro.uri_reference AND sd.property = ?
		AND sf.class = ? AND sf.property = ? AND sf.num_value = sd.num_value AND rr.uri_reference = sf.uri_reference
		AND jr.left_rule = ro.rule_id AND jr.right_rule = rr.rule_id AND jr.group_id = ?`,
	`SELECT jr.rule_id, ro.uri_reference FROM ResultObjects ro, Statements sf, RuleResults rr, JoinRules jr
		WHERE sf.class = ? AND sf.property = ? AND sf.value = ro.uri_reference AND rr.uri_reference = sf.uri_reference
		AND jr.left_rule = ro.rule_id AND jr.right_rule = rr.rule_id AND jr.group_id = ?`,
	// Group delta, general comparison: typed and CAST forms.
	`SELECT jr.rule_id, ro.uri_reference FROM ResultObjects ro, Statements sd, JoinRules jr, RuleResults rr, Statements sf
		WHERE sd.uri_reference = ro.uri_reference AND sd.property = ?
		AND jr.group_id = ? AND jr.left_rule = ro.rule_id AND rr.rule_id = jr.right_rule
		AND sf.uri_reference = rr.uri_reference AND sf.property = ? AND sd.num_value < sf.num_value`,
	`SELECT jr.rule_id, rr.uri_reference FROM ResultObjects ro, Statements sd, JoinRules jr, RuleResults rr, Statements sf
		WHERE sd.uri_reference = ro.uri_reference AND sd.property = ?
		AND jr.group_id = ? AND jr.right_rule = ro.rule_id AND rr.rule_id = jr.left_rule
		AND sf.uri_reference = rr.uri_reference AND sf.property = ?
		AND CAST(sf.value AS FLOAT) = CAST(sd.value AS FLOAT)`,
	// Group delta, self join.
	`SELECT jr.rule_id, ro.uri_reference FROM ResultObjects ro, Statements s1, Statements s2, JoinRules jr
		WHERE s1.uri_reference = ro.uri_reference AND s1.property = ?
		AND s2.uri_reference = ro.uri_reference AND s2.property = ?
		AND s1.value != s2.value AND jr.group_id = ? AND jr.left_rule = ro.rule_id`,
	// Full join at registration: by URI, by value, general comparison
	// (rr is reached by the first-remaining fallback), self.
	`SELECT rl.uri_reference FROM RuleResults rl, Statements sl, RuleResults rr
		WHERE rl.rule_id = ? AND sl.uri_reference = rl.uri_reference AND sl.property = ?
		AND rr.rule_id = ? AND rr.uri_reference = sl.value`,
	`SELECT rl.uri_reference FROM RuleResults rl, RuleResults rr
		WHERE rl.rule_id = ? AND rr.rule_id = ? AND rr.uri_reference = rl.uri_reference`,
	`SELECT rr.uri_reference FROM RuleResults rl, Statements sl, Statements sr, RuleResults rr
		WHERE rl.rule_id = ? AND sl.uri_reference = rl.uri_reference AND sl.property = ?
		AND sr.class = ? AND sr.property = ? AND sr.num_value = sl.num_value
		AND rr.rule_id = ? AND rr.uri_reference = sr.uri_reference`,
	`SELECT rl.uri_reference FROM RuleResults rl, Statements sl, RuleResults rr, Statements sr
		WHERE rl.rule_id = ? AND sl.uri_reference = rl.uri_reference AND sl.property = ?
		AND rr.rule_id = ? AND sr.uri_reference = rr.uri_reference AND sr.property = ?
		AND sl.num_value > sr.num_value`,
	`SELECT rl.uri_reference FROM RuleResults rl, Statements s1, Statements s2
		WHERE rl.rule_id = ? AND s1.uri_reference = rl.uri_reference AND s1.property = ?
		AND s2.uri_reference = rl.uri_reference AND s2.property = ? AND s1.num_value <= s2.num_value`,
	// Affected groups and subscription lookups.
	affectedGroups,
	`SELECT s.sub_id, s.subscriber FROM SubscriptionEndRules ser, Subscriptions s
		WHERE ser.end_rule = ? AND s.sub_id = ser.sub_id`,
	`SELECT s.subscriber FROM RuleResults rr, SubscriptionEndRules ser, Subscriptions s
		WHERE rr.uri_reference = ? AND ser.end_rule = rr.rule_id AND s.sub_id = ser.sub_id`,
	// One query variable with a property access.
	`SELECT DISTINCT r0.uri_reference FROM Cache r0, CacheStatements p1
		WHERE r0.class = ? AND p1.uri_reference = r0.uri_reference AND p1.property = ? AND p1.value = ?`,
}

// affectedGroups is the filter's affected-group statement: the rule groups,
// and the side of each, that the delta in ResultObjects feeds.
const affectedGroups = `SELECT DISTINCT gf.group_id, gf.side FROM ResultObjects ro, GroupFeeds gf
	WHERE gf.source_rule = ro.rule_id`

// TestPlanAffectedGroupsStartsFromDelta: the affected-group statement scans
// only the delta and reaches GroupFeeds through idx_gf_pk's source_rule
// prefix. Written GroupFeeds first with a constant side, as it used to be,
// it scanned all of GroupFeeds — one row per (input rule, side, group) of
// the whole rule base — on every pass of the fixpoint.
func TestPlanAffectedGroupsStartsFromDelta(t *testing.T) {
	db := openWith(t, engineDDL...)
	type step struct {
		alias string
		kind  accessKind
		index string
	}
	check := func(text string, want []step) {
		t.Helper()
		plan := planOf(t, db, text)
		if len(plan.rels) != len(want) {
			t.Fatalf("%d relations planned, want %d", len(plan.rels), len(want))
		}
		for i, rel := range plan.rels {
			got := step{alias: rel.binding.alias, kind: rel.access.kind}
			if rel.access.index != nil {
				got.index = rel.access.index.Def.Name
			}
			if got != want[i] {
				t.Errorf("relation %d planned as %+v, want %+v in\n%s", i, got, want[i], text)
			}
		}
	}
	check(affectedGroups, []step{
		{"ro", accessFullScan, ""},
		{"gf", accessIndexPrefix, "idx_gf_pk"},
	})
	check(`SELECT DISTINCT gf.group_id FROM GroupFeeds gf, ResultObjects ro
		WHERE gf.source_rule = ro.rule_id AND gf.side = 'L'`, []step{
		{"gf", accessFullScan, ""},
		{"ro", accessIndexPoint, "idx_ro_rule"},
	})

	feeds := []struct {
		rule  int64
		side  string
		group int64
	}{{1, "L", 10}, {1, "R", 11}, {2, "L", 10}, {3, "L", 12}}
	for _, f := range feeds {
		mustExec(t, db, `INSERT INTO GroupFeeds VALUES (?, ?, ?)`,
			rdb.NewInt(f.rule), rdb.NewText(f.side), rdb.NewInt(f.group))
	}
	for _, rule := range []int64{1, 2} {
		mustExec(t, db, `INSERT INTO ResultObjects VALUES ('u', ?)`, rdb.NewInt(rule))
	}
	rows, err := db.Query(affectedGroups)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowsFingerprint(rows), " "); got != "INT:10|TEXT:L INT:11|TEXT:R" {
		t.Fatalf("affected groups %s, want 10/L and 11/R once each", got)
	}
}

// TestPlanKeepsEngineStatementOrder pins FROM order for every statement in
// engineStatements.
func TestPlanKeepsEngineStatementOrder(t *testing.T) {
	db := openWith(t, append(append([]string(nil), engineDDL...), cacheDDL...)...)
	for _, q := range engineStatements {
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		var aliases []string
		for _, ref := range st.(*SelectStmt).From {
			aliases = append(aliases, ref.Alias)
		}
		if got, want := planOrder(planOf(t, db, q)), strings.Join(aliases, ","); got != want {
			t.Errorf("join order %s, want FROM order %s for\n%s", got, want, q)
		}
	}
}

// TestPlanRelationLimit: footprints are 64-bit relation sets, so a FROM list
// of 64 relations plans (in order, each keyed on the one before) and a
// longer one is refused.
func TestPlanRelationLimit(t *testing.T) {
	indexed, _ := buildPair(t, rand.New(rand.NewSource(1)), 0)
	chain := func(n int) (string, string) {
		var from, conds, want []string
		for i := 0; i < n; i++ {
			from = append(from, fmt.Sprintf("d t%d", i))
			want = append(want, fmt.Sprintf("t%d", i))
			if i > 0 {
				conds = append(conds, fmt.Sprintf("t%d.id = t%d.val", i, i-1))
			}
		}
		return "SELECT t0.id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(conds, " AND "),
			strings.Join(want, ",")
	}
	text, want := chain(64)
	if got := planOrder(planOf(t, indexed, text)); got != want {
		t.Fatalf("64-relation chain planned as %s", got)
	}
	text, _ = chain(65)
	if _, err := indexed.Query(text); err == nil {
		t.Fatal("65 relations in FROM were accepted")
	}
}

// TestPlanKeepsConnectedChainOrder: random FROM lists in which every
// relation after the first has an `=` conjunct keyed on an earlier one plan
// in FROM order, whatever constant and non-equality conjuncts (including
// ones reaching forward) ride along and however the WHERE clause is ordered.
func TestPlanKeepsConnectedChainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	indexed, _ := buildPair(t, rng, 0)
	cols := []string{"id", "cls", "prop", "val", "txt"}
	col := func() string { return cols[rng.Intn(len(cols))] }
	for q := 0; q < 300; q++ {
		n := 2 + rng.Intn(5)
		var from, conds, want []string
		for i := 0; i < n; i++ {
			alias := fmt.Sprintf("t%d", i)
			from = append(from, "d "+alias)
			want = append(want, alias)
			if i > 0 {
				j := rng.Intn(i)
				switch rng.Intn(3) {
				case 0:
					conds = append(conds, fmt.Sprintf("t%d.%s = t%d.%s", i, col(), j, col()))
				case 1:
					conds = append(conds, fmt.Sprintf("t%d.%s = t%d.%s", j, col(), i, col()))
				default:
					conds = append(conds, fmt.Sprintf("t%d.id = t%d.val + 1", i, j))
				}
			}
			switch rng.Intn(4) {
			case 0:
				conds = append(conds, fmt.Sprintf("t%d.cls = 'A'", i))
			case 1:
				conds = append(conds, fmt.Sprintf("t%d.val > t%d.val", i, rng.Intn(n)))
			case 2:
				conds = append(conds, fmt.Sprintf("t%d.txt != t%d.txt", rng.Intn(n), i))
			}
		}
		rng.Shuffle(len(conds), func(a, b int) { conds[a], conds[b] = conds[b], conds[a] })
		text := "SELECT * FROM " + strings.Join(from, ", ")
		if len(conds) > 0 {
			text += " WHERE " + strings.Join(conds, " AND ")
		}
		if got := planOrder(planOf(t, indexed, text)); got != strings.Join(want, ",") {
			t.Fatalf("join order %s, want FROM order for\n%s", got, text)
		}
	}
}
