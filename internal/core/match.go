package core

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// matchSet accumulates (rule, uri) matches of one filter run.
type matchSet struct {
	byRule map[int64]map[string]bool
}

func newMatchSet() *matchSet {
	return &matchSet{byRule: make(map[int64]map[string]bool)}
}

// add records a match and reports whether it is new within this set.
func (m *matchSet) add(rule int64, uri string) bool {
	set := m.byRule[rule]
	if set == nil {
		set = make(map[string]bool)
		m.byRule[rule] = set
	}
	if set[uri] {
		return false
	}
	set[uri] = true
	return true
}

func (m *matchSet) has(rule int64, uri string) bool {
	return m.byRule[rule][uri]
}

// remove deletes a match and reports whether it was present.
func (m *matchSet) remove(rule int64, uri string) bool {
	set := m.byRule[rule]
	if !set[uri] {
		return false
	}
	delete(set, uri)
	if len(set) == 0 {
		delete(m.byRule, rule)
	}
	return true
}

// uriList returns the sorted distinct resources the set has matches on.
func (m *matchSet) uriList() []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range m.byRule {
		for uri := range set {
			if !seen[uri] {
				seen[uri] = true
				out = append(out, uri)
			}
		}
	}
	sort.Strings(out)
	return out
}

// uris returns the sorted matches of one rule.
func (m *matchSet) uris(rule int64) []string {
	set := m.byRule[rule]
	out := make([]string, 0, len(set))
	for uri := range set {
		out = append(out, uri)
	}
	sort.Strings(out)
	return out
}

// filterMode controls materialization during a run.
type filterMode uint8

const (
	// modeMaterialize records new matches in RuleResults and propagates
	// only matches not materialized before (normal registration, §3.4).
	modeMaterialize filterMode = iota
	// modeCollect finds matches of the given atoms without touching
	// RuleResults; propagation is deduplicated within the run only. Used
	// for the first execution of §3.5 (the caller unmaterializes the result
	// afterwards).
	modeCollect
	// modeRecheck materializes like modeMaterialize, but every match on a
	// resource whose atoms the run was given propagates, materialized or
	// not, so the join groups it feeds are evaluated again. The run returns
	// only the matches it materialized. Used for §3.5's second execution,
	// which re-derives retracted candidates whose support never changed.
	modeRecheck
)

// runFilter executes the filter algorithm (paper §3.4) over the given
// atoms: loads them into FilterData, determines affected triggering rules,
// then iteratively evaluates dependent join rules until no new results
// appear. seeds add, to the first join iteration, the materialized matches
// through which changed join properties reach their groups (joinSeeds). It
// returns every (atomic rule, resource) match derived in this run; see
// modeRecheck for that mode's result.
func (e *Engine) runFilter(as []atoms.Atom, seeds []seedKey, mode filterMode) (*matchSet, error) {
	e.stats.FilterRuns++

	all := newMatchSet()
	var fresh *matchSet
	var own map[string]bool
	if mode == modeRecheck {
		fresh = newMatchSet()
		own = make(map[string]bool)
		for _, a := range as {
			own[a.URIRef] = true
		}
	}
	note := func(p matchPair) (bool, error) {
		isNew, err := e.noteMatch(p.rule, p.uri, mode)
		if isNew && fresh != nil {
			fresh.add(p.rule, p.uri)
		}
		return isNew || own[p.uri], err
	}
	var delta []matchPair

	// Phase 1: affected triggering rules (Figure 9, initial iteration):
	// load the atoms into the FilterData scratch and join them against the
	// filter tables. Matches are collected first and the materialization
	// bookkeeping runs after: mutating statements must not run inside a
	// streaming query.
	tTrig := time.Now()
	trigPairs, err := e.collectTriggering(as)
	if err != nil {
		return nil, err
	}
	for _, p := range trigPairs {
		if !all.add(p.rule, p.uri) {
			continue
		}
		e.stats.TriggeringMatches++
		propagate, err := note(p)
		if err != nil {
			return nil, err
		}
		if propagate {
			delta = append(delta, p)
		}
	}
	delta, err = e.addSeeds(delta, seeds)
	if err != nil {
		return nil, err
	}
	e.observeStage(stageTriggering, tTrig)

	// Phase 2: iterate dependent join rules through ResultObjects until a
	// fixpoint (the dependency graph is a DAG, so this terminates after at
	// most longest-path iterations; §3.4).
	tJoin := time.Now()
	for len(delta) > 0 {
		if err := e.loadResultObjects(delta); err != nil {
			return nil, err
		}
		next, err := e.evaluateDependentGroups(all, note)
		if err != nil {
			return nil, err
		}
		delta = next
	}
	e.observeStage(stageJoin, tJoin)
	// Drop the run's scratch: leaving it resident would keep the engine's
	// quiescent state from being byte-identical across a
	// subscribe/unsubscribe cycle.
	if _, err := e.db.Exec(clearResultObjects); err != nil {
		return nil, err
	}
	if fresh != nil {
		return fresh, nil
	}
	return all, nil
}

type matchPair struct {
	rule int64
	uri  string
}

// numTrigOps is the number of triggering operators (ANY plus the nine
// predicate forms of paper §3.3.4).
const numTrigOps = 10

// trigOpNames are the triggering operators in the order collectTriggering
// runs their queries.
var trigOpNames = [numTrigOps]string{"ANY", "EQ", "EQN", "NE", "NEN", "CON", "LT", "LE", "GT", "GE"}

// collectTriggering loads the atoms some triggering rule can match into
// FilterData, runs the ten triggering queries in trigOpNames order — the
// contains slot through the substring index when the engine has one — and
// clears the scratch on every return path, so a failed run leaves no atoms
// behind to match in the next one. Every triggering query equates the
// atom's class and property with the rule's, so an atom whose
// (class, property) trigProps does not count matches nothing and is never
// loaded; a run with no other atom issues no statement.
func (e *Engine) collectTriggering(as []atoms.Atom) (pairs []matchPair, err error) {
	e.stats.ShardedFilterRuns++
	var live []atoms.Atom
	var rows [][]rdb.Value
	for _, a := range as {
		if e.trigProps[classProp{a.Class, a.Property}] == 0 {
			continue
		}
		live = append(live, a)
		rows = append(rows, a.Row())
	}
	if len(live) == 0 {
		return nil, nil
	}
	e.stats.ShardSectionsRun++
	defer func() {
		if _, cerr := e.db.Exec(`DELETE FROM FilterData`); err == nil {
			err = cerr
		}
	}()
	if _, err := e.db.ExecBatch(`INSERT INTO FilterData (uri_reference, class, property, value, num_value, is_ref)
		VALUES (?, ?, ?, ?, ?, ?)`, rows); err != nil {
		return nil, err
	}
	texts := &typedTrigSQL
	if e.opts.DisableTypedIndexes {
		texts = &castTrigSQL
	}
	for j, text := range texts {
		tq := time.Now()
		if j == conTrigIdx && e.text != nil {
			pairs = e.text.collect(live, pairs)
		} else if err := e.db.QueryFunc(text, nil, func(row []rdb.Value) error {
			pairs = append(pairs, matchPair{rule: row[0].Int, uri: row[1].Str})
			return nil
		}); err != nil {
			return nil, err
		}
		e.traceTrig(trigOpNames[j], time.Since(tq))
	}
	return pairs, nil
}

// loadTrigProps rebuilds the triggering-property counts from the
// FilterRules tables.
func (e *Engine) loadTrigProps() error {
	e.trigProps = map[classProp]int{}
	for _, table := range trigTableNames {
		rows, err := e.db.Query(`SELECT * FROM ` + table)
		if err != nil {
			return err
		}
		for _, row := range rows.Data {
			e.trigProps[trigRowKey(row)]++
		}
	}
	return nil
}

// trigRowKey is the trigProps key of a filter-table row: (rule_id, class)
// for ANY, (rule_id, class, property, value[, num_value]) for the others.
func trigRowKey(row []rdb.Value) classProp {
	if len(row) == 2 {
		return classProp{row[1].Str, rdf.SubjectProperty}
	}
	return classProp{row[1].Str, row[2].Str}
}

// noteMatch handles materialization bookkeeping for a derived match and
// reports whether it is new: always in modeCollect, and otherwise when it
// was not materialized before.
func (e *Engine) noteMatch(rule int64, uri string, mode filterMode) (bool, error) {
	switch mode {
	case modeMaterialize, modeRecheck:
		has, err := e.hasResult(rule, uri)
		if err != nil {
			return false, err
		}
		if has {
			return false, nil
		}
		return true, e.materialize(rule, uri)
	default: // modeCollect
		return true, nil
	}
}

// clearResultObjects empties the per-iteration results.
const clearResultObjects = `DELETE FROM ResultObjects`

// loadResultObjects replaces the ResultObjects table with the delta.
func (e *Engine) loadResultObjects(delta []matchPair) error {
	if _, err := e.db.Exec(clearResultObjects); err != nil {
		return err
	}
	rows := make([][]rdb.Value, len(delta))
	for i, p := range delta {
		rows[i] = []rdb.Value{rdb.NewText(p.uri), rdb.NewInt(p.rule)}
	}
	_, err := e.db.ExecBatch(`INSERT INTO ResultObjects (uri_reference, rule_id) VALUES (?, ?)`, rows)
	return err
}

// evaluateDependentGroups finds the rule groups fed by the current
// ResultObjects and evaluates each once per affected side (§3.3.3: grouped
// join rules are evaluated together; §3.4: inputs are the delta plus the
// materialized results of the other side). note records a derived match and
// reports whether it propagates to the next iteration.
func (e *Engine) evaluateDependentGroups(all *matchSet, note func(matchPair) (bool, error)) ([]matchPair, error) {
	type task struct {
		group int64
		side  byte // 'L' or 'R' delta side
	}
	// The statement starts at the delta and reaches GroupFeeds through its
	// (source_rule, side, group_id) index, so it reads one row per
	// (delta rule, side, group) edge — never the rest of the rule base. The
	// planner keeps FROM order, so GroupFeeds named first would be scanned
	// whole on every pass.
	rows, err := e.db.Query(`
		SELECT DISTINCT gf.group_id, gf.side FROM ResultObjects ro, GroupFeeds gf
		WHERE gf.source_rule = ro.rule_id`)
	if err != nil {
		return nil, err
	}
	tasks := make([]task, 0, rows.Len())
	for _, r := range rows.Data {
		tasks = append(tasks, task{group: r[0].Int, side: r[1].Str[0]})
	}
	// Deterministic evaluation order.
	sort.Slice(tasks, func(a, b int) bool {
		if tasks[a].group != tasks[b].group {
			return tasks[a].group < tasks[b].group
		}
		return tasks[a].side < tasks[b].side
	})
	if len(tasks) > 0 {
		e.stats.FilterIterations++
	}

	var next []matchPair
	for _, t := range tasks {
		g, err := e.groupByID(t.group)
		if err != nil {
			return nil, err
		}
		if g.self && t.side == 'R' {
			continue // self groups have a single input side
		}
		e.stats.JoinEvaluations++
		t0 := time.Now()
		pairs, err := e.evalGroupDelta(g, t.side, 0)
		if err != nil {
			return nil, err
		}
		e.traceGroup(t.group, time.Since(t0))
		for _, p := range pairs {
			if !all.add(p.rule, p.uri) {
				continue
			}
			e.stats.JoinMatches++
			propagate, err := note(p)
			if err != nil {
				return nil, err
			}
			if propagate {
				next = append(next, p)
			}
		}
	}
	return next, nil
}

// evalGroupDelta evaluates one rule group with the delta on the given side
// and the materialized results on the other (§3.4, "Evaluation of Join
// Rules"); a non-zero rule restricts the evaluation to that member.
func (e *Engine) evalGroupDelta(g *groupInfo, deltaSide byte, rule int64) ([]matchPair, error) {
	text, params := e.buildGroupSQL(g, deltaSide, rule)
	var out []matchPair
	err := e.db.QueryFunc(text, params, func(row []rdb.Value) error {
		out = append(out, matchPair{rule: row[0].Int, uri: row[1].Str})
		return nil
	})
	return out, err
}

// compareSQL renders "<lhs> <op> <rhs>". Numeric comparisons use the typed
// num_value columns (backed by ordered indexes) unless the engine runs the
// CAST ablation, which reconverts the string-stored values at match time
// (paper §3.3.4).
func (e *Engine) compareSQL(lhs, rhs string, op rules.Op, numeric bool) string {
	cmp, cast := sqlCompare(op, numeric)
	if cast {
		if e.opts.DisableTypedIndexes {
			lhs = "CAST(" + lhs + " AS FLOAT)"
			rhs = "CAST(" + rhs + " AS FLOAT)"
		} else {
			lhs, rhs = numCol(lhs), numCol(rhs)
		}
	}
	return lhs + " " + cmp + " " + rhs
}

// numCol rewrites a Statements value expression to its typed numeric
// column. Numeric comparisons always compare property values (the rule
// normalizer types bare URIs as strings), so the operand is always a
// "<alias>.value" reference.
func numCol(expr string) string {
	return strings.TrimSuffix(expr, ".value") + ".num_value"
}

// buildGroupSQL constructs the delta-evaluation query of one rule group.
// This is where the batched group evaluation of §3.3.3 pays off: for
// equi-joins the query starts from the delta resources, resolves the join
// partner through value indexes, and only then probes JoinRules by both
// rule ids — so the cost is proportional to the delta and its join fan-out,
// not to the number of join rules in the group. With typed indexes, numeric
// equi-joins resolve the partner the same way through the (class, property,
// num_value) statement index; only the CAST ablation falls back to
// enumerating group members. For non-equality comparisons the query
// enumerates the group members first and their materialized inputs after
// (the same rule-base-size dependence the paper measures for COMP-style
// predicates), though typed engines at least skip the per-row CAST.
//
// A non-zero rule restricts the query to that one member (jr.rule_id = ?):
// a new join rule's bootstrap is this query with one input's full result as
// the delta (initializeJoin). The filter passes 0 and evaluates every member.
//
// Classes and property names are parameters; only the operator and operand
// shapes are baked into the text, so the statement cache stays small.
func (e *Engine) buildGroupSQL(g *groupInfo, deltaSide byte, rule int64) (string, []rdb.Value) {
	// View the join from the delta side: d* is the delta input, f* the full
	// (materialized) side.
	dProp, fProp := g.leftProp, g.rightProp
	dRule, fRule := "jr.left_rule", "jr.right_rule"
	fClass := g.rightClass
	op := g.op
	outDelta := g.registerSide == 'L'
	flipped := false
	if deltaSide == 'R' {
		dProp, fProp = g.rightProp, g.leftProp
		dRule, fRule = "jr.right_rule", "jr.left_rule"
		fClass = g.leftClass
		outDelta = g.registerSide == 'R'
		flipped = true
	}

	var from []string
	var where []string
	var params []rdb.Value

	if g.self {
		// Single resource, two property accesses; member probe last.
		from = append(from, "ResultObjects ro", "Statements s1", "Statements s2", "JoinRules jr")
		where = append(where,
			"s1.uri_reference = ro.uri_reference", "s1.property = ?",
			"s2.uri_reference = ro.uri_reference", "s2.property = ?",
			e.compareSQL("s1.value", "s2.value", g.op, g.numeric),
			"jr.group_id = ?", dRule+" = ro.rule_id")
		params = append(params, rdb.NewText(g.leftProp), rdb.NewText(g.rightProp), rdb.NewInt(g.id))
		return groupSelect("ro.uri_reference", from, where, params, rule)
	}

	from = append(from, "ResultObjects ro")
	deltaVal := "ro.uri_reference"
	if dProp != "" {
		from = append(from, "Statements sd")
		where = append(where, "sd.uri_reference = ro.uri_reference", "sd.property = ?")
		params = append(params, rdb.NewText(dProp))
		deltaVal = "sd.value"
	}

	// Orient the comparison as originally written (left op right).
	cmp := func(dv, fv string) string {
		if flipped {
			return e.compareSQL(fv, dv, op, g.numeric)
		}
		return e.compareSQL(dv, fv, op, g.numeric)
	}

	// Equi-joins resolve the partner through an index: string equality via
	// the (class, property, value) statement index, numeric equality via
	// the typed (class, property, num_value) one (unavailable under the
	// CAST ablation, which must reconvert and therefore enumerate).
	eqJoin := op == rules.OpEq && (!g.numeric || !e.opts.DisableTypedIndexes)
	if eqJoin {
		// Resolve the full-side resource through value indexes, then check
		// group membership: jr is probed by (left_rule, right_rule).
		if fProp == "" {
			// Full side joined by its URI: RuleResults rows for that URI.
			from = append(from, "RuleResults rr")
			where = append(where, "rr.uri_reference = "+deltaVal)
		} else {
			// Full side joined by property value: the statement index finds
			// the partner, then its RuleResults rows.
			join := "sf.value = " + deltaVal
			if g.numeric {
				join = "sf.num_value = " + numCol(deltaVal)
			}
			from = append(from, "Statements sf", "RuleResults rr")
			where = append(where,
				"sf.class = ?", "sf.property = ?", join,
				"rr.uri_reference = sf.uri_reference")
			params = append(params, rdb.NewText(fClass), rdb.NewText(fProp))
		}
		from = append(from, "JoinRules jr")
		where = append(where, dRule+" = ro.rule_id", fRule+" = rr.rule_id", "jr.group_id = ?")
		params = append(params, rdb.NewInt(g.id))
	} else {
		// General comparison: enumerate members, then the full side's
		// materialized results, and compare.
		from = append(from, "JoinRules jr", "RuleResults rr")
		where = append(where, "jr.group_id = ?", dRule+" = ro.rule_id", "rr.rule_id = "+fRule)
		params = append(params, rdb.NewInt(g.id))
		fullVal := "rr.uri_reference"
		if fProp != "" {
			from = append(from, "Statements sf")
			where = append(where, "sf.uri_reference = rr.uri_reference", "sf.property = ?")
			params = append(params, rdb.NewText(fProp))
			fullVal = "sf.value"
		}
		where = append(where, cmp(deltaVal, fullVal))
	}
	out := "ro.uri_reference"
	if !outDelta {
		out = "rr.uri_reference"
	}
	return groupSelect(out, from, where, params, rule)
}

// groupSelect renders a group query selecting (jr.rule_id, out), restricted
// to member rule when it is non-zero.
func groupSelect(out string, from, where []string, params []rdb.Value, rule int64) (string, []rdb.Value) {
	if rule != 0 {
		where = append(where, "jr.rule_id = ?")
		params = append(params, rdb.NewInt(rule))
	}
	return "SELECT jr.rule_id, " + out + " FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND "), params
}

// unmaterializeAll removes every match of the set from RuleResults (the
// cleanup step after the old-version run of §3.5), by rule and then URI:
// the deletes free rows the next inserts reuse, so their order shows in a
// snapshot's bytes.
func (e *Engine) unmaterializeAll(m *matchSet) error {
	for _, rule := range slices.Sorted(maps.Keys(m.byRule)) {
		for _, uri := range m.uris(rule) {
			if err := e.unmaterialize(rule, uri); err != nil {
				return err
			}
		}
	}
	return nil
}

// subscriberRef is one subscription an end rule credits.
type subscriberRef struct {
	subID      int64
	subscriber string
}

// endRuleSubscribers maps an end rule to its subscriptions, one entry per
// SubscriptionEndRules row: derived state of SubscriptionEndRules ⋈
// Subscriptions, which stay its persistent form. Subscribe adds a
// subscription's entries once all its rows are written, Unsubscribe removes
// them, and Load rebuilds the map, so credit routing is a hash probe per
// matched rule instead of a join per rule and per updated resource.
type endRuleSubscribers map[int64][]subscriberRef

func (m endRuleSubscribers) add(ref subscriberRef, ends []int64) {
	for _, end := range ends {
		m[end] = append(m[end], ref)
	}
}

func (m endRuleSubscribers) remove(subID int64, ends []int64) {
	for _, end := range ends {
		kept := slices.DeleteFunc(m[end], func(r subscriberRef) bool { return r.subID == subID })
		if len(kept) == 0 {
			delete(m, end)
		} else {
			m[end] = kept
		}
	}
}

// loadEndRuleSubs rebuilds the end-rule index from its tables. It first
// drops the SubscriptionEndRules rows of subscriptions that do not exist:
// an OR rule whose later branch failed to decompose left such rows behind
// in older snapshots and logs, and the restored id counters would hand
// their subscription and rule ids out again, crediting another
// subscription.
func (e *Engine) loadEndRuleSubs() error {
	e.endSubs = endRuleSubscribers{}
	live := map[int64]bool{}
	err := e.db.QueryFunc(`
		SELECT ser.end_rule, s.sub_id, s.subscriber FROM SubscriptionEndRules ser, Subscriptions s
		WHERE s.sub_id = ser.sub_id`, nil, func(row []rdb.Value) error {
		e.endSubs.add(subscriberRef{subID: row[1].Int, subscriber: row[2].Str}, []int64{row[0].Int})
		live[row[1].Int] = true
		return nil
	})
	if err != nil {
		return err
	}
	var orphans []int64
	err = e.db.QueryFunc(`SELECT DISTINCT sub_id FROM SubscriptionEndRules`, nil, func(row []rdb.Value) error {
		if !live[row[0].Int] {
			orphans = append(orphans, row[0].Int)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, subID := range orphans {
		if _, err := e.db.Exec(`DELETE FROM SubscriptionEndRules WHERE sub_id = ?`, rdb.NewInt(subID)); err != nil {
			return err
		}
	}
	return nil
}
