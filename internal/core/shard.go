package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
)

// Triggering: the partitioned phase 1 of the filter run.
//
// Every one of the nine predicate triggering queries equates the filter
// rule's (class, property) with the FilterData atom's (class, property); the
// ANY query has no property column but only ever consumes subject atoms
// (fd.property = rdf.SubjectProperty). (class, property) is therefore an
// exact join-key partition of the triggering join: hashing atoms and rules
// by that pair sends every derivable (rule, atom) match to exactly one
// shard, so evaluating the shards independently and concatenating their
// candidate sets in shard order reproduces the unpartitioned join — the
// dedup/fixpoint downstream is a set computation, and everything
// buildPublishSet emits is sorted, so the output is byte-identical for any
// shard count. One shard is the degenerate partition, not a separate path.
//
// Each shard owns a private database holding its slice of the FilterData
// scratch and the ten FilterRules tables. A private database means a private
// statement lock, so shard sections run truly concurrently. The FilterRules
// tables in the engine database are the persisted catalogue: written at
// subscribe/unsubscribe, saved in snapshots, read back only to rebuild the
// shards on load — never at publish. Shards never read engine state, which
// keeps the lock hierarchy a strict rdb < shard < engine < provider.

// numTrigOps is the number of triggering operators (ANY plus the nine
// predicate forms of paper §3.3.4).
const numTrigOps = 10

// maxShards bounds the configured shard count: beyond the point where every
// core has a section, more shards only add fixed per-shard costs and metric
// cardinality.
const maxShards = 64

// trigOpNames are the triggering operators in the engine's canonical
// evaluation order (the order every shard section runs their queries in).
var trigOpNames = [numTrigOps]string{"ANY", "EQ", "EQN", "NE", "NEN", "CON", "LT", "LE", "GT", "GE"}

// trigTableNames are the per-operator filter tables, index-aligned with
// trigOpNames.
var trigTableNames = [numTrigOps]string{
	"FilterRulesANY", "FilterRulesEQ", "FilterRulesEQN", "FilterRulesNE", "FilterRulesNEN",
	"FilterRulesCON", "FilterRulesLT", "FilterRulesLE", "FilterRulesGT", "FilterRulesGE",
}

// trigQueryTexts renders the ten triggering queries (paper §3.4,
// "Determination of Affected Triggering Rules"): FilterData joined against
// each filter table. The typed form compares the parsed num_value columns
// through the ordered (class, property, num_value) indexes; the CAST form is
// the paper's string-reconverting scan, kept as an ablation.
func trigQueryTexts(disableTyped bool) [numTrigOps]string {
	numCmp := func(op string) string {
		if disableTyped {
			return "CAST(fd.value AS FLOAT) " + op + " CAST(fr.value AS FLOAT)"
		}
		return "fd.num_value " + op + " fr.num_value"
	}
	sel := func(table, cond string) string {
		return `
		SELECT fr.rule_id, fd.uri_reference FROM FilterData fd, ` + table + ` fr
		WHERE ` + cond
	}
	cp := "fr.class = fd.class AND fr.property = fd.property"
	return [numTrigOps]string{
		sel("FilterRulesANY", "fd.property = '"+rdf.SubjectProperty+"' AND fr.class = fd.class"),
		sel("FilterRulesEQ", cp+" AND fr.value = fd.value"),
		sel("FilterRulesEQN", cp+" AND "+numCmp("=")),
		sel("FilterRulesNE", cp+" AND fd.value != fr.value"),
		sel("FilterRulesNEN", cp+" AND "+numCmp("!=")),
		sel("FilterRulesCON", cp+" AND fd.value CONTAINS fr.value"),
		sel("FilterRulesLT", cp+" AND "+numCmp("<")),
		sel("FilterRulesLE", cp+" AND "+numCmp("<=")),
		sel("FilterRulesGT", cp+" AND "+numCmp(">")),
		sel("FilterRulesGE", cp+" AND "+numCmp(">=")),
	}
}

// engineShard is one partition of the triggering phase: a private database
// with this shard's slice of the scratch and filter tables and its own
// prepared statement set.
type engineShard struct {
	db            *sql.DB
	insFilterData *sql.Stmt
	clearFilter   *sql.Stmt
	trig          [numTrigOps]*sql.Stmt
}

// shardSet is the engine's triggering machinery: one or more sections.
type shardSet struct {
	shards []*engineShard
}

// filterDataDDL is the transient per-run input atoms table (paper Figure 4),
// which only shards hold. num_value mirrors Statements.num_value for the
// typed triggering joins.
var filterDataDDL = []string{
	`CREATE TABLE FilterData (
		uri_reference TEXT NOT NULL,
		class TEXT NOT NULL,
		property TEXT NOT NULL,
		value TEXT NOT NULL,
		num_value FLOAT,
		is_ref BOOL NOT NULL
	)`,
	`CREATE INDEX idx_fd_cp ON FilterData (class, property)`,
	`CREATE INDEX idx_fd_uri ON FilterData (uri_reference)`,
}

// shardDDL is the schema of a shard: the FilterData scratch plus the ten
// FilterRules tables with their indexes, filtered out of the engine ddl so
// the catalogue and the shards cannot drift.
func shardDDL() []string {
	out := append([]string(nil), filterDataDDL...)
	for _, stmt := range ddl {
		if strings.Contains(stmt, "FilterRules") {
			out = append(out, stmt)
		}
	}
	return out
}

// newShardSet bootstraps n shard databases and prepares their statements.
func newShardSet(n int, disableTyped bool) (*shardSet, error) {
	texts := trigQueryTexts(disableTyped)
	s := &shardSet{shards: make([]*engineShard, n)}
	for i := range s.shards {
		db := sql.Open()
		for _, stmt := range shardDDL() {
			if _, err := db.Exec(stmt); err != nil {
				return nil, fmt.Errorf("core: shard bootstrap: %w", err)
			}
		}
		sh := &engineShard{db: db}
		sh.insFilterData = db.MustPrepare(
			`INSERT INTO FilterData (uri_reference, class, property, value, num_value, is_ref) VALUES (?, ?, ?, ?, ?, ?)`)
		sh.clearFilter = db.MustPrepare(`DELETE FROM FilterData`)
		for j, text := range texts {
			sh.trig[j] = db.MustPrepare(text)
		}
		s.shards[i] = sh
	}
	return s, nil
}

// shardIndexFor routes a (class, property) pair to its shard: FNV-1a over
// class, a zero separator, and property. The hash is stable across runs, so
// a snapshot load rebuilds the same shard map.
func shardIndexFor(n int, class, property string) int {
	h := fnv.New32a()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(property))
	return int(h.Sum32() % uint32(n))
}

// filterRuleRow builds the filter-table row of a triggering rule in the
// table's column order: (rule_id, class) for ANY, plus (property, value) for
// the string operators, plus num_value for the numeric ones.
func filterRuleRow(spec triggerSpec, table string, id int64) []rdb.Value {
	row := []rdb.Value{rdb.NewInt(id), rdb.NewText(spec.class)}
	if spec.any {
		return row
	}
	row = append(row, rdb.NewText(spec.property), rdb.NewText(spec.value.Lexical()))
	if numericFilterTable(table) {
		row = append(row, numValue(spec.value.Lexical()))
	}
	return row
}

// filterRuleInsert renders the INSERT of a full-width filter-table row; the
// same text runs against the catalogue and the owning shard.
func filterRuleInsert(table string, width int) string {
	return `INSERT INTO ` + table + ` VALUES (?` + strings.Repeat(", ?", width-1) + `)`
}

// insertRule writes a filter-table row into the shard that owns it. ANY
// rows carry no property and only ever match subject atoms, so they are
// routed as (class, rdf.SubjectProperty) — the key of the atoms that trigger
// them. Callers hold the engine lock exclusively (subscription changes never
// race a filter run).
func (s *shardSet) insertRule(table string, row []rdb.Value) error {
	prop := rdf.SubjectProperty
	if len(row) > 2 {
		prop = row[2].Str
	}
	sh := s.shards[shardIndexFor(len(s.shards), row[1].Str, prop)]
	_, err := sh.db.Exec(filterRuleInsert(table, len(row)), row...)
	return err
}

// deleteRule removes a swept triggering rule from every shard. The
// unsubscribe sweep does not know which operator table or shard holds the
// rule, and it is a cold path, so probing all of them is fine.
func (s *shardSet) deleteRule(id int64) error {
	for _, sh := range s.shards {
		for _, table := range trigTableNames {
			if _, err := sh.db.Exec(`DELETE FROM `+table+` WHERE rule_id = ?`, rdb.NewInt(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// initShards builds the engine's triggering sections and fills them from
// the catalogue (empty on a fresh engine, populated after a snapshot load).
func (e *Engine) initShards() error {
	s, err := newShardSet(e.opts.effectiveShards(), e.opts.DisableTypedIndexes)
	if err != nil {
		return err
	}
	e.shards = s
	for _, table := range trigTableNames {
		rows, err := e.db.Query(`SELECT * FROM ` + table)
		if err != nil {
			return err
		}
		for _, r := range rows.Data {
			if err := s.insertRule(table, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShardCount reports the engine's triggering parallelism (at least 1).
func (e *Engine) ShardCount() int { return len(e.shards.shards) }

// shardRun is the output of one shard's triggering section.
type shardRun struct {
	pairs []matchPair
	trig  [numTrigOps]time.Duration
	wait  time.Duration // dispatch-to-start delay (core/lock queueing)
	busy  time.Duration // wall time of the section itself
	atoms int
	err   error
}

// runTriggering is one shard's section: load the routed atoms into the
// shard's FilterData, run the ten triggering queries in canonical order,
// and clear the scratch — on every return path, so a failed run leaves no
// atoms behind to match in the next one. It touches only shard-local state
// plus the caller-owned run record — never the engine. text is the engine's
// shared contains-rule index (nil on the differential's reference engine,
// which runs the CON query instead): reading it from a worker is safe
// because an atom's cohort key is its (class, property) routing key, so
// this shard's part only ever touches cohorts no other worker sees.
func (sh *engineShard) runTriggering(text *textIndex, part []preparedAtom, run *shardRun) (err error) {
	rows := make([][]rdb.Value, len(part))
	for i, pa := range part {
		a := pa.stmt
		rows[i] = []rdb.Value{rdb.NewText(a.URIRef), rdb.NewText(a.Class), rdb.NewText(a.Property),
			rdb.NewText(a.Value), pa.num, rdb.NewBool(a.IsRef)}
	}
	defer func() {
		if _, cerr := sh.clearFilter.Exec(); err == nil {
			err = cerr
		}
	}()
	if _, err := sh.insFilterData.ExecBatch(rows); err != nil {
		return err
	}
	for j, st := range sh.trig {
		tq := time.Now()
		if j == conTrigIdx && text != nil {
			run.pairs = text.collect(part, run.pairs)
			run.trig[j] = time.Since(tq)
			continue
		}
		err := st.QueryFunc(nil, func(row []rdb.Value) error {
			run.pairs = append(run.pairs, matchPair{rule: row[0].Int, uri: row[1].Str})
			return nil
		})
		if err != nil {
			return err
		}
		run.trig[j] = time.Since(tq)
	}
	return nil
}

// collectTriggering partitions the prepared atoms by shard, runs every
// non-empty shard section concurrently, and merges the shard-local candidate
// sets in shard order. The merge is deterministic: shard order is fixed by
// the hash, per-shard statement order is the canonical operator order, and
// per-statement row order is the plan's scan order — and the downstream
// dedup/fixpoint is order-insensitive anyway.
func (e *Engine) collectTriggering(atoms []preparedAtom) ([]matchPair, error) {
	n := len(e.shards.shards)
	parts := make([][]preparedAtom, n)
	for _, pa := range atoms {
		i := shardIndexFor(n, pa.stmt.Class, pa.stmt.Property)
		parts[i] = append(parts[i], pa)
	}
	runs := make([]shardRun, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := &runs[i]
			start := time.Now()
			run.wait = start.Sub(t0)
			run.atoms = len(parts[i])
			run.err = e.shards.shards[i].runTriggering(e.text, parts[i], run)
			run.busy = time.Since(start)
		}(i)
	}
	wg.Wait()

	// Merge on the coordinator, in shard order. Stats, metrics, and the
	// slow-publish trace are only touched here — never inside the workers —
	// so the engine's single-writer counter discipline holds.
	var pairs []matchPair
	sections := 0
	for i := range runs {
		run := &runs[i]
		if run.atoms == 0 {
			continue
		}
		if run.err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, run.err)
		}
		sections++
		pairs = append(pairs, run.pairs...)
		for j, d := range run.trig {
			if d > 0 {
				e.traceTrig(trigOpNames[j], d)
			}
		}
	}
	e.stats.ShardedFilterRuns++
	e.stats.ShardSectionsRun += sections
	e.observeShards(runs)
	return pairs, nil
}
