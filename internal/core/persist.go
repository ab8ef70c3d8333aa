package core

import (
	"fmt"
	"io"
	"strings"

	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// Save writes a snapshot of the engine's entire state — metadata,
// decomposed rules, materializations, subscriptions and named rules — to
// w. Every write keeps the tables current, so Save only reads them.
func (e *Engine) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.Raw().Save(w)
}

// legacyDocuments reports whether a snapshot's Documents table still has
// the content column of older engines.
func legacyDocuments(raw *rdb.Database) bool {
	docs, err := raw.Table("Documents")
	if err != nil {
		return false
	}
	def := docs.Def()
	return def.ColumnIndex("content") >= 0
}

// recreateTable drops a table and creates it empty from ddl, with its
// indexes.
func (e *Engine) recreateTable(name string) error {
	if _, err := e.db.Exec(`DROP TABLE IF EXISTS ` + name); err != nil {
		return err
	}
	for _, stmt := range ddl {
		if strings.Contains(stmt, " "+name+" (") {
			if _, err := e.db.Exec(stmt); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load restores an engine from a snapshot previously written by Save. The
// schema must be the one the snapshot was created with (the snapshot does
// not embed it; schemas are shared federation-wide configuration).
func Load(r io.Reader, schema *rdf.Schema) (*Engine, error) {
	return LoadWithOptions(r, schema, Options{})
}

// LoadWithOptions is Load with explicit engine options (snapshots carry no
// options).
func LoadWithOptions(r io.Reader, schema *rdf.Schema, opts Options) (*Engine, error) {
	raw, err := rdb.Load(r)
	if err != nil {
		return nil, err
	}
	e := &Engine{db: sql.NewDB(raw), schema: schema, opts: opts, named: map[string]*rules.NormalRule{}}
	// The snapshot must contain the engine's tables.
	for _, table := range []string{"Statements", "AtomicRules", "Subscriptions"} {
		if !raw.HasTable(table) {
			return nil, fmt.Errorf("core: snapshot is not an engine snapshot (missing %s)", table)
		}
	}
	// FilterData is per-run scratch. Snapshots carry it empty, stale, or not
	// at all (engines that kept it outside the engine database); recreate it
	// fresh from ddl's FilterData statements either way.
	if err := e.recreateTable("FilterData"); err != nil {
		return nil, err
	}
	// Older snapshots also store each document's serialized RDF/XML; its
	// statements are a document's only stored form now. Keep the URIs.
	if legacyDocuments(raw) {
		rows, err := e.db.Query(`SELECT uri FROM Documents`)
		if err != nil {
			return nil, err
		}
		if err := e.recreateTable("Documents"); err != nil {
			return nil, err
		}
		if _, err := e.db.ExecBatch(`INSERT INTO Documents (uri) VALUES (?)`, rows.Data); err != nil {
			return nil, err
		}
	}
	// Older snapshots also carry a table of dependency edges that nothing
	// reads: JoinRules' inputs and GroupFeeds hold the same graph.
	if _, err := e.db.Exec(`DROP TABLE IF EXISTS RuleDependencies`); err != nil {
		return nil, err
	}
	// Restore the id counters from the stored maxima (0 for an empty table).
	var restoreErr error
	maxOf := func(col, table string) int64 {
		var m int64
		err := e.db.QueryFunc(`SELECT `+col+` FROM `+table, nil, func(row []rdb.Value) error {
			m = max(m, row[0].Int)
			return nil
		})
		if err != nil {
			restoreErr = err
		}
		return m
	}
	e.nextRuleID = maxOf("rule_id", "AtomicRules")
	e.nextSubID = maxOf("sub_id", "Subscriptions")
	e.nextGroupID = maxOf("group_id", "RuleGroups")
	if restoreErr != nil {
		return nil, restoreErr
	}
	// Restore named rules. Snapshots of engines that wrote the table only
	// when saving lack it until their first save with a named rule.
	if !raw.HasTable("NamedRules") {
		if err := e.recreateTable("NamedRules"); err != nil {
			return nil, err
		}
	}
	rows, err := e.db.Query(`SELECT name, rule_text FROM NamedRules`)
	if err != nil {
		return nil, err
	}
	for _, row := range rows.Data {
		name, text := row[0].Str, row[1].Str
		parsed, err := rules.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot named rule %q: %w", name, err)
		}
		normalized, err := rules.Normalize(parsed, schema, e.resolveNamed)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot named rule %q: %w", name, err)
		}
		if len(normalized) != 1 {
			return nil, fmt.Errorf("core: snapshot named rule %q normalizes to %d rules", name, len(normalized))
		}
		e.named[name] = normalized[0]
	}
	// The text index, the join- and triggering-property maps and the
	// end-rule index are derived state, never serialized: rebuild them from
	// the FilterRules, RuleGroups and subscription rows.
	if err := e.initTextIndex(); err != nil {
		return nil, err
	}
	if err := e.loadJoinProps(); err != nil {
		return nil, err
	}
	if err := e.loadTrigProps(); err != nil {
		return nil, err
	}
	if err := e.loadEndRuleSubs(); err != nil {
		return nil, err
	}
	return e, nil
}
