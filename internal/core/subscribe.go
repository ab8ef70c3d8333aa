package core

import (
	"fmt"
	"sort"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// Subscription describes one registered subscription.
type Subscription struct {
	ID         int64
	Subscriber string
	RuleText   string
}

// Subscribe registers a subscription rule for a subscriber (an LMR). The
// rule is parsed, normalized (splitting OR into several normalized rules),
// decomposed into atomic rules merged with the global dependency graph
// (§3.3), and evaluated against the already registered metadata. The
// returned changeset carries the initial cache content: every currently
// matching resource with its strong-reference closure.
func (e *Engine) Subscribe(subscriber, ruleText string) (int64, *Changeset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	rule, err := rules.Parse(ruleText)
	if err != nil {
		return 0, nil, err
	}
	normalized, err := rules.Normalize(rule, e.schema, e.resolveNamed)
	if err != nil {
		return 0, nil, err
	}

	e.nextSubID++
	subID := e.nextSubID
	if _, err := e.db.Exec(`INSERT INTO Subscriptions (sub_id, subscriber, rule_text) VALUES (?, ?, ?)`,
		rdb.NewInt(subID), rdb.NewText(subscriber), rdb.NewText(ruleText)); err != nil {
		return 0, nil, err
	}

	// Decompose every OR branch before writing the subscription's rows, so
	// a branch that fails leaves none behind.
	ctx := &internCtx{}
	ends := make([]int64, 0, len(normalized))
	for _, nr := range normalized {
		end, err := e.decomposeNormalRule(nr, ctx)
		if err != nil {
			e.rollbackSubscribe(subID, ctx.interned)
			return 0, nil, err
		}
		ends = append(ends, end)
	}
	endRows := make([][]rdb.Value, len(ends))
	for i, end := range ends {
		endRows[i] = []rdb.Value{rdb.NewInt(subID), rdb.NewInt(end)}
	}
	internedRows := make([][]rdb.Value, len(ctx.interned))
	for i, id := range ctx.interned {
		internedRows[i] = []rdb.Value{rdb.NewInt(subID), rdb.NewInt(id)}
	}
	if _, err := e.db.ExecBatch(`INSERT INTO SubscriptionEndRules (sub_id, end_rule) VALUES (?, ?)`, endRows); err != nil {
		e.rollbackSubscribe(subID, ctx.interned)
		return 0, nil, err
	}
	if _, err := e.db.ExecBatch(`INSERT INTO SubscriptionAtomicRules (sub_id, rule_id) VALUES (?, ?)`, internedRows); err != nil {
		e.rollbackSubscribe(subID, ctx.interned)
		return 0, nil, err
	}
	e.endSubs.add(subscriberRef{subID: subID, subscriber: subscriber}, ends)

	// Initial cache fill: current matches of the end rules.
	cs, err := e.fillChangeset(subscriber, []int64{subID})
	if err != nil {
		return 0, nil, err
	}
	return subID, cs, nil
}

// rollbackSubscribe undoes a subscribe that failed: it deletes the rows
// written for subID and releases the atomic rules interned so far, which
// repairs their refcounts. Its own errors are dropped: the caller reports
// the failure that made it roll back.
func (e *Engine) rollbackSubscribe(subID int64, interned []int64) {
	for _, table := range []string{"Subscriptions", "SubscriptionEndRules", "SubscriptionAtomicRules"} {
		_, _ = e.db.Exec(`DELETE FROM `+table+` WHERE sub_id = ?`, rdb.NewInt(subID))
	}
	_ = e.releaseInterned(interned)
}

// ResubscribeFill builds a full-state changeset for one subscriber: every
// resource currently matching any of its subscriptions, with its credits
// and strong-reference closure. The provider delivers it as a reset
// changeset when it cannot prove a gap-free changelog replay for a
// resuming subscriber (e.g. after truncation).
func (e *Engine) ResubscribeFill(subscriber string) (*Changeset, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, err := e.db.Query(`SELECT sub_id FROM Subscriptions WHERE subscriber = ?`,
		rdb.NewText(subscriber))
	if err != nil {
		return nil, err
	}
	subIDs := make([]int64, 0, rows.Len())
	for _, row := range rows.Data {
		subIDs = append(subIDs, row[0].Int)
	}
	return e.fillChangeset(subscriber, subIDs)
}

// fillChangeset builds the full-state changeset of some of one subscriber's
// subscriptions: every resource an end rule of theirs matches, credited to
// them. It goes through the publish path's group builder as a one-member
// interest group, so a fill and a batch upsert carry the same content.
func (e *Engine) fillChangeset(subscriber string, subIDs []int64) (*Changeset, error) {
	in := &interest{upserts: map[string]map[int64]bool{}}
	for _, subID := range subIDs {
		ends, err := e.endRulesOfLocked(subID)
		if err != nil {
			return nil, err
		}
		for _, end := range ends {
			uris, err := e.ruleResultsOfLocked(end)
			if err != nil {
				return nil, err
			}
			for _, uri := range uris {
				in.upsertIDs(uri)[subID] = true
			}
		}
	}
	cs, _, err := e.buildGroupChangeset([]string{subscriber}, map[string]*interest{subscriber: in},
		map[string]*builtUpsert{}, map[string]*rdf.Resource{})
	return cs, err
}

// Unsubscribe removes a subscription and releases its atomic rules. Atomic
// rules whose refcount drops to zero are deleted together with their filter
// table entries, group memberships, dependencies, and materialized results
// (§2.2: rules can be changed or removed when users adjust their
// selections).
func (e *Engine) Unsubscribe(subID int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	rows, err := e.db.Query(`SELECT sub_id FROM Subscriptions WHERE sub_id = ?`, rdb.NewInt(subID))
	if err != nil {
		return err
	}
	if rows.Empty() {
		return fmt.Errorf("core: no subscription %d", subID)
	}
	ruleRows, err := e.db.Query(`SELECT rule_id FROM SubscriptionAtomicRules WHERE sub_id = ?`,
		rdb.NewInt(subID))
	if err != nil {
		return err
	}
	interned := make([]int64, 0, ruleRows.Len())
	for _, r := range ruleRows.Data {
		interned = append(interned, r[0].Int)
	}
	ends, err := e.endRulesOfLocked(subID)
	if err != nil {
		return err
	}
	if _, err := e.db.Exec(`DELETE FROM Subscriptions WHERE sub_id = ?`, rdb.NewInt(subID)); err != nil {
		return err
	}
	if _, err := e.db.Exec(`DELETE FROM SubscriptionEndRules WHERE sub_id = ?`, rdb.NewInt(subID)); err != nil {
		return err
	}
	if _, err := e.db.Exec(`DELETE FROM SubscriptionAtomicRules WHERE sub_id = ?`, rdb.NewInt(subID)); err != nil {
		return err
	}
	e.endSubs.remove(subID, ends)
	return e.releaseInterned(interned)
}

// releaseInterned decrements refcounts and sweeps rules that reached zero.
func (e *Engine) releaseInterned(interned []int64) error {
	for _, id := range interned {
		if _, err := e.db.Exec(`UPDATE AtomicRules SET refcount = refcount - 1 WHERE rule_id = ?`,
			rdb.NewInt(id)); err != nil {
			return err
		}
	}
	// Sweep: delete zero-refcount rules. One pass suffices because the
	// refcounts of input rules were decremented independently (every intern
	// call was recorded).
	rows, err := e.db.Query(`SELECT rule_id, kind FROM AtomicRules WHERE refcount <= 0`)
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
		id, kind := r[0].Int, r[1].Str
		if _, err := e.db.Exec(`DELETE FROM AtomicRules WHERE rule_id = ?`, rdb.NewInt(id)); err != nil {
			return err
		}
		if _, err := e.db.Exec(`DELETE FROM RuleResults WHERE rule_id = ?`, rdb.NewInt(id)); err != nil {
			return err
		}
		if kind == kindTrigger {
			if err := e.dropTrigger(id); err != nil {
				return err
			}
			continue
		}
		// Join rule: remove from its group; drop the group when empty.
		grows, err := e.db.Query(`SELECT group_id FROM JoinRules WHERE rule_id = ?`, rdb.NewInt(id))
		if err != nil {
			return err
		}
		if _, err := e.db.Exec(`DELETE FROM JoinRules WHERE rule_id = ?`, rdb.NewInt(id)); err != nil {
			return err
		}
		if !grows.Empty() {
			gid := grows.Data[0][0].Int
			if err := e.rebuildGroupFeeds(gid); err != nil {
				return err
			}
			mrows, err := e.db.Query(`SELECT rule_id FROM JoinRules WHERE group_id = ? LIMIT 1`, rdb.NewInt(gid))
			if err != nil {
				return err
			}
			if mrows.Empty() {
				g, err := e.groupByID(gid)
				if err != nil {
					return err
				}
				if _, err := e.db.Exec(`DELETE FROM RuleGroups WHERE group_id = ?`, rdb.NewInt(gid)); err != nil {
					return err
				}
				e.joinProps.remove(g)
			}
		}
	}
	return nil
}

// dropTrigger deletes a triggering rule's filter-table row and releases its
// entries in the derived state: its trigProps count and, for a contains rule,
// its substring-index entry (released first: the row carries the cohort key
// the removal needs).
func (e *Engine) dropTrigger(id int64) error {
	for _, table := range trigTableNames {
		rows, err := e.db.Query(`SELECT * FROM `+table+` WHERE rule_id = ?`, rdb.NewInt(id))
		if err != nil {
			return err
		}
		if rows.Empty() {
			continue
		}
		row := rows.Data[0]
		cp := trigRowKey(row)
		if e.trigProps[cp]--; e.trigProps[cp] <= 0 {
			delete(e.trigProps, cp)
		}
		if e.text != nil && table == "FilterRulesCON" {
			e.text.remove(cp.class, cp.property, row[3].Str, id)
		}
		_, err = e.db.Exec(`DELETE FROM `+table+` WHERE rule_id = ?`, rdb.NewInt(id))
		return err
	}
	return nil
}

// Subscriptions lists all registered subscriptions, sorted by id.
func (e *Engine) Subscriptions() ([]Subscription, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, err := e.db.Query(`SELECT sub_id, subscriber, rule_text FROM Subscriptions ORDER BY sub_id`)
	if err != nil {
		return nil, err
	}
	out := make([]Subscription, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, Subscription{ID: r[0].Int, Subscriber: r[1].Str, RuleText: r[2].Str})
	}
	return out, nil
}

// RegisterNamedRule stores a rule under a name so later rules can use it as
// an extension (paper §2.3). The named rule must normalize to a single
// conjunctive rule (no OR).
func (e *Engine) RegisterNamedRule(name, ruleText string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.named[name]; exists {
		return fmt.Errorf("core: named rule %q already registered", name)
	}
	if _, isClass := e.schema.Class(name); isClass {
		return fmt.Errorf("core: name %q collides with a schema class", name)
	}
	rule, err := rules.Parse(ruleText)
	if err != nil {
		return err
	}
	normalized, err := rules.Normalize(rule, e.schema, e.resolveNamed)
	if err != nil {
		return err
	}
	if len(normalized) != 1 {
		return fmt.Errorf("core: named rule %q must not contain OR (normalizes to %d rules)",
			name, len(normalized))
	}
	if _, err := e.db.Exec(`INSERT INTO NamedRules (name, rule_text) VALUES (?, ?)`,
		rdb.NewText(name), rdb.NewText(normalized[0].Text())); err != nil {
		return err
	}
	e.named[name] = normalized[0]
	return nil
}

// NamedRules lists the registered rule names, sorted.
func (e *Engine) NamedRules() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.named))
	for name := range e.named {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) resolveNamed(name string) (*rules.NormalRule, bool) {
	nr, ok := e.named[name]
	return nr, ok
}

// EndRulesOf returns the end atomic rules of a subscription (tests).
func (e *Engine) EndRulesOf(subID int64) ([]int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.endRulesOfLocked(subID)
}

func (e *Engine) endRulesOfLocked(subID int64) ([]int64, error) {
	rows, err := e.db.Query(`SELECT end_rule FROM SubscriptionEndRules WHERE sub_id = ? ORDER BY end_rule`,
		rdb.NewInt(subID))
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Int)
	}
	return out, nil
}

// MatchingResources evaluates which resources currently match a
// subscription (the union of its end rules' materialized results).
func (e *Engine) MatchingResources(subID int64) ([]*rdf.Resource, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ends, err := e.endRulesOfLocked(subID)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []*rdf.Resource
	for _, end := range ends {
		uris, err := e.ruleResultsOfLocked(end)
		if err != nil {
			return nil, err
		}
		for _, uri := range uris {
			if seen[uri] {
				continue
			}
			seen[uri] = true
			res, ok, err := atoms.Statements.Read(e.db, uri)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, res)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URIRef < out[b].URIRef })
	return out, nil
}
