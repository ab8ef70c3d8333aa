// Package core implements the paper's primary contribution: the MDV
// publish & subscribe filter algorithm (paper §3), built entirely on the
// relational engine (internal/rdb) through its SQL layer — mirroring the
// paper's implementation on "a standard relational database system".
//
// The engine maintains:
//
//   - the registered metadata itself (Statements, Resources, Documents);
//   - the decomposed subscription rules: AtomicRules with their kinds
//     (triggering vs. join), join rules with their inputs and groups
//     (JoinRules/RuleGroups), the group feed edges (GroupFeeds) — JoinRules'
//     input columns and GroupFeeds are the global dependency graph — and
//     the per-operator filter tables FilterRulesANY/EQ/EQN/NE/NEN/CON/LT/
//     LE/GT/GE (§3.3.4);
//   - materialized results of every atomic rule (RuleResults, §3.4);
//   - subscriptions mapping end rules to subscribers.
//
// Registration of documents runs the filter (§3.4); re-registration and
// deletion run §3.5's executions over the atoms that changed, then re-check
// the retracted candidates. A new join rule's first materialization is one
// filter delta step over the smaller of its inputs (initializeJoin), so the
// group query of match.go is the only join evaluator. The engine produces a
// PublishSet per batch: the changesets an MDP sends to its LMRs, one per
// interest group; subscription fills go through the same group builder.
package core

import (
	"fmt"
	"sync"

	"mdv/internal/atoms"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// Options tune the engine, mainly for the ablation experiments.
type Options struct {
	// DisableRuleGroups evaluates every join rule individually instead of
	// batching group members (ablation of §3.3.3).
	DisableRuleGroups bool
	// DisableSharing gives every registered rule private atomic rules
	// instead of merging equivalent ones into the global dependency graph
	// (ablation of §3.3.2).
	DisableSharing bool
	// DisableTypedIndexes makes numeric comparisons reconvert string-stored
	// constants via CAST at match time, as the paper's prototype does
	// (§3.3.4), instead of comparing the typed num_value columns through
	// their ordered indexes. Ablation of the sub-linear triggering path.
	DisableTypedIndexes bool
	// Deprecated: Shards is ignored. Triggering runs in one section on the
	// engine's own filter tables; the field remains only because the bench
	// module still sets it, and goes with that module's next revision.
	Shards int
}

// Stats counts engine work, exposed for the performance experiments.
type Stats struct {
	DocumentsRegistered int
	ResourcesRegistered int
	FilterRuns          int
	FilterIterations    int
	TriggeringMatches   int
	JoinEvaluations     int
	JoinMatches         int
	AtomicRulesShared   int // registrations that reused an existing atomic rule
	AtomicRulesCreated  int
	// Interest-group coalescing counters: how many delivery groups batches
	// produced, how many subscriber slots those groups covered, and how
	// much changeset construction actually ran. ChangesetsBuilt counts one
	// per group (not per subscriber); UpsertsBuilt counts resource-fetch +
	// strong-closure walks, deduplicated by the per-batch URI cache.
	PublishGroups      int
	GroupedSubscribers int
	ChangesetsBuilt    int
	UpsertsBuilt       int
	// Deprecated: ShardedFilterRuns equals FilterRuns, and ShardSectionsRun
	// counts the filter runs that loaded at least one atom. Both remain only
	// because the bench module still reports them, and go with that module's
	// next revision.
	ShardedFilterRuns int
	ShardSectionsRun  int
}

// Engine is the MDV filter engine of one Metadata Provider.
//
// Concurrency: mu is a reader/writer lock. Mutating operations
// (RegisterDocuments, DeleteDocument, Subscribe, Unsubscribe,
// RegisterNamedRule, Save) hold it exclusively; read-only inspection
// (Subscriptions, SubscriptionsOf, EndRulesOf, MatchingResources,
// NamedRules, Stats, Browse, GetResource, StoredDocument, DocumentURIs,
// RuleResultsOf, ResubscribeFill, the counters) holds it shared, so any
// number of readers run concurrently and block only while a writer is in
// its exclusive section. Internal helpers suffixed "Locked" assume the
// caller holds mu in the required mode. The stats counters are mutated
// only under the exclusive lock, so a shared lock suffices for a
// consistent snapshot.
type Engine struct {
	mu     sync.RWMutex
	db     *sql.DB
	schema *rdf.Schema
	opts   Options
	stats  Stats

	nextRuleID  int64
	nextSubID   int64
	nextGroupID int64
	// disambig makes rule texts unique when sharing is disabled.
	disambig int64

	// named holds rules registered under a name, usable as extensions of
	// later rules (paper §2.3: an extension is "either some class defined
	// in the schema or another subscription rule").
	named map[string]*rules.NormalRule

	// text is the contains-rule substring index (textindex.go). Derived
	// state: FilterRulesCON stays authoritative, and with text nil — which
	// only TestTextIndexDifferential's reference engine sets — the CON
	// triggering query over that table runs instead.
	text *textIndex

	// joinProps says which join-rule groups read each (class, property);
	// derived from RuleGroups (joinprops.go).
	joinProps joinProps

	// trigProps counts the triggering rules that compare each
	// (class, property), an ANY rule under (class, rdf#subject); derived
	// from the FilterRules tables (match.go).
	trigProps map[classProp]int

	// endSubs maps each end rule to its subscriptions; derived from
	// SubscriptionEndRules and Subscriptions (match.go).
	endSubs endRuleSubscribers

	// storedVersion, when set, gives a registered document's previous
	// version instead of the rebuild from its statements. Set only by
	// TestReregisterDiffFromStatements' reference engine, which parses each
	// document's last registered RDF/XML.
	storedVersion func(uri string) (*rdf.Document, error)

	// obs holds the optional metrics and slow-publish-log hooks; zero value
	// means fully disabled (one atomic nil load per instrumented site).
	obs engineObs
}

// NewEngine creates an engine with a fresh database.
func NewEngine(schema *rdf.Schema) (*Engine, error) {
	return NewEngineWithOptions(schema, Options{})
}

// NewEngineWithOptions creates an engine with explicit options.
func NewEngineWithOptions(schema *rdf.Schema, opts Options) (*Engine, error) {
	e := &Engine{db: sql.Open(), schema: schema, opts: opts, named: map[string]*rules.NormalRule{},
		joinProps: joinProps{}, trigProps: map[classProp]int{}, endSubs: endRuleSubscribers{}}
	if err := e.bootstrap(); err != nil {
		return nil, err
	}
	if err := e.initTextIndex(); err != nil {
		return nil, err
	}
	return e, nil
}

// DB exposes the underlying SQL database (tests and persistence).
func (e *Engine) DB() *sql.DB { return e.db }

// Schema returns the engine's metadata schema.
func (e *Engine) Schema() *rdf.Schema { return e.schema }

// Options returns the options the engine was created with (replicas reuse
// them when installing a shipped snapshot).
func (e *Engine) Options() Options { return e.opts }

// Stats returns a consistent copy of the engine's counters. Counters are
// only mutated under the exclusive lock, so the shared lock guarantees the
// copy does not tear against a concurrent registration.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
}

// ddl is the engine's relational schema (paper §3.3.4 and Figure 4/7/8/9).
var ddl = append(
	// All metadata atoms ever registered: the MDP's database (RDF mapped to
	// tables per Florescu/Kossmann [14]), in the row layout the LMR cache
	// shares.
	atoms.Statements.DDL(),
	`CREATE INDEX idx_stmt_value ON Statements (value)`,

	// Resource catalog: which document owns each resource.
	`CREATE TABLE Resources (
		uri_reference TEXT PRIMARY KEY,
		doc_uri TEXT NOT NULL,
		class TEXT NOT NULL
	)`,
	`CREATE INDEX idx_res_doc ON Resources (doc_uri)`,
	`CREATE INDEX idx_res_class ON Resources (class)`,

	// Registered documents. A document's content is its resources'
	// Resources and Statements rows, from which a re-registration rebuilds
	// the previous version.
	`CREATE TABLE Documents (uri TEXT PRIMARY KEY)`,

	// Atomic rules (paper Figure 7). kind: 'T' triggering, 'J' join.
	// class is the type of the resources the rule registers.
	`CREATE TABLE AtomicRules (
		rule_id INT PRIMARY KEY,
		kind TEXT NOT NULL,
		class TEXT NOT NULL,
		rule_text TEXT NOT NULL,
		refcount INT NOT NULL
	)`,
	`CREATE UNIQUE INDEX idx_ar_text ON AtomicRules (rule_text)`,

	// Join rules with their group assignment (paper §3.3.3, Figure 7).
	// left_rule and right_rule are the rule's inputs: with GroupFeeds they
	// are the global dependency graph (paper §3.3.2).
	`CREATE TABLE JoinRules (
		rule_id INT PRIMARY KEY,
		left_rule INT NOT NULL,
		right_rule INT NOT NULL,
		group_id INT NOT NULL
	)`,
	`CREATE INDEX idx_jr_group ON JoinRules (group_id)`,
	`CREATE INDEX idx_jr_left ON JoinRules (left_rule)`,
	`CREATE INDEX idx_jr_right ON JoinRules (right_rule)`,
	`CREATE INDEX idx_jr_lr ON JoinRules (left_rule, right_rule)`,

	// Deduplicated edges from an input atomic rule to the join-rule groups
	// it feeds, one row per (source rule, side, group). The filter's
	// affected-group collection probes this by source rule, so its cost is
	// proportional to the number of distinct groups a delta feeds — not to
	// the number of join rules sharing those groups (JoinRules holds one
	// row per rule; a shared triggering rule can feed tens of thousands).
	`CREATE TABLE GroupFeeds (source_rule INT NOT NULL, side TEXT NOT NULL, group_id INT NOT NULL)`,
	`CREATE UNIQUE INDEX idx_gf_pk ON GroupFeeds (source_rule, side, group_id)`,
	`CREATE INDEX idx_gf_group ON GroupFeeds (group_id)`,

	// Rule groups: the shared where-part of equally shaped join rules.
	`CREATE TABLE RuleGroups (
		group_id INT PRIMARY KEY,
		left_class TEXT NOT NULL,
		left_prop TEXT NOT NULL,
		op TEXT NOT NULL,
		right_prop TEXT NOT NULL,
		right_class TEXT NOT NULL,
		register_side TEXT NOT NULL,
		is_self BOOL NOT NULL,
		group_key TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX idx_rg_key ON RuleGroups (group_key)`,

	// Triggering-rule filter tables (paper §3.3.4, Figure 8). One table per
	// operator. The paper stores numeric constants as strings and
	// reconverts them at join time via CAST; the numeric tables
	// (EQN/NEN/LT/LE/GT/GE) additionally keep the parsed constant in
	// num_value, and their ordered (class, property, num_value) indexes let
	// a document atom resolve its matching rules with a point lookup (EQN)
	// or range scan (LT/LE/GT/GE) — O(log R + matches) instead of a
	// Θ(rule base) scan. The string column stays authoritative for rule
	// texts and the CAST ablation (Options.DisableTypedIndexes).
	`CREATE TABLE FilterRulesANY (rule_id INT NOT NULL, class TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_any ON FilterRulesANY (class)`,
	`CREATE TABLE FilterRulesEQ (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_eq ON FilterRulesEQ (class, property, value)`,
	`CREATE TABLE FilterRulesEQN (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_eqn ON FilterRulesEQN (class, property, num_value)`,
	`CREATE TABLE FilterRulesNE (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_ne ON FilterRulesNE (class, property)`,
	`CREATE TABLE FilterRulesNEN (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_nen ON FilterRulesNEN (class, property, num_value)`,
	`CREATE TABLE FilterRulesCON (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL)`,
	`CREATE INDEX idx_fr_con ON FilterRulesCON (class, property)`,
	`CREATE TABLE FilterRulesLT (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_lt ON FilterRulesLT (class, property, num_value)`,
	`CREATE TABLE FilterRulesLE (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_le ON FilterRulesLE (class, property, num_value)`,
	`CREATE TABLE FilterRulesGT (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_gt ON FilterRulesGT (class, property, num_value)`,
	`CREATE TABLE FilterRulesGE (rule_id INT NOT NULL, class TEXT NOT NULL, property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT)`,
	`CREATE INDEX idx_fr_ge ON FilterRulesGE (class, property, num_value)`,

	// Materialized results of every atomic rule (paper §3.4).
	`CREATE TABLE RuleResults (rule_id INT NOT NULL, uri_reference TEXT NOT NULL)`,
	`CREATE UNIQUE INDEX idx_rr_pk ON RuleResults (rule_id, uri_reference)`,
	`CREATE INDEX idx_rr_rule ON RuleResults (rule_id)`,
	`CREATE INDEX idx_rr_uri ON RuleResults (uri_reference)`,

	// Transient per-run input atoms (paper Figure 4), joined against the
	// filter tables by the triggering queries. num_value mirrors
	// Statements.num_value for the typed triggering joins.
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

	// Transient per-iteration results (paper Figure 9).
	`CREATE TABLE ResultObjects (uri_reference TEXT NOT NULL, rule_id INT NOT NULL)`,
	`CREATE INDEX idx_ro_rule ON ResultObjects (rule_id)`,

	// Subscriptions: one subscription per registered rule per subscriber;
	// OR-splitting can give a subscription several end rules.
	`CREATE TABLE Subscriptions (
		sub_id INT PRIMARY KEY,
		subscriber TEXT NOT NULL,
		rule_text TEXT NOT NULL
	)`,
	`CREATE INDEX idx_sub_subscriber ON Subscriptions (subscriber)`,
	`CREATE TABLE SubscriptionEndRules (sub_id INT NOT NULL, end_rule INT NOT NULL)`,
	`CREATE INDEX idx_ser_end ON SubscriptionEndRules (end_rule)`,
	`CREATE INDEX idx_ser_sub ON SubscriptionEndRules (sub_id)`,
	// Every atomic rule interned on behalf of a subscription (including
	// duplicates), for refcount release on unsubscribe.
	`CREATE TABLE SubscriptionAtomicRules (sub_id INT NOT NULL, rule_id INT NOT NULL)`,
	`CREATE INDEX idx_sar_sub ON SubscriptionAtomicRules (sub_id)`,

	// Rules registered by name as search extensions (paper §2.3), in their
	// normalized text.
	`CREATE TABLE NamedRules (name TEXT PRIMARY KEY, rule_text TEXT NOT NULL)`,
)

func (e *Engine) bootstrap() error {
	for _, stmt := range ddl {
		if _, err := e.db.Exec(stmt); err != nil {
			return fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	return nil
}

// The ten triggering queries (paper §3.4, "Determination of Affected
// Triggering Rules"): FilterData joined against each filter table, in
// trigOpNames order. The typed form compares the parsed num_value columns
// through the ordered (class, property, num_value) indexes; the CAST form is
// the paper's string-reconverting scan, kept as an ablation
// (Options.DisableTypedIndexes).
var typedTrigSQL, castTrigSQL = trigQueryTexts(false), trigQueryTexts(true)

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

// count returns a table's row count, for introspection and tests.
func (e *Engine) count(table string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, err := e.db.Raw().Table(table)
	if err != nil {
		return -1
	}
	return t.Len()
}

// AtomicRuleCount returns the number of atomic rules in the engine.
func (e *Engine) AtomicRuleCount() int { return e.count("AtomicRules") }

// RuleGroupCount returns the number of join-rule groups.
func (e *Engine) RuleGroupCount() int { return e.count("RuleGroups") }

// StatementCount returns the number of stored metadata atoms.
func (e *Engine) StatementCount() int { return e.count("Statements") }

// ResourceCount returns the number of registered resources.
func (e *Engine) ResourceCount() int { return e.count("Resources") }
