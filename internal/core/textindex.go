package core

import (
	"sort"
	"sync/atomic"

	"mdv/internal/atoms"
)

// Sub-linear text triggering: a multi-pattern substring index over the
// `contains` rule constants.
//
// The FilterRulesCON triggering query joins every FilterData atom against
// every contains rule of its (class, property) cohort with a per-rule
// `fd.value CONTAINS fr.value` probe — Θ(R_CON) strings.Contains calls per
// atom, the last linear scan left after PR 3 made the numeric operators
// O(log R). Following "Full-text Support for Publish/Subscribe Ontology
// Systems", the index inverts the roles: the *rule constants* are compiled
// into one Aho-Corasick automaton per (class, property) cohort, so a single
// left-to-right pass over an atom value finds every rule whose constant
// occurs in it — O(|value| + matches) per atom, independent of the rule
// base.
//
// The index is derived state: the FilterRulesCON table stays authoritative
// for persistence, snapshots, and the scan path the differential test
// compares against (e.text == nil); the index is maintained incrementally
// on subscribe/unsubscribe under the exclusive engine lock and rebuilt from
// the canonical table on LoadWithOptions. Snapshots never contain index
// state, so save/load determinism is untouched.
//
// Semantics are pinned to the SQL CONTAINS baseline (internal/rdb/sql
// expr.go): byte-wise, case-sensitive strings.Contains. Matching raw bytes
// reproduces it exactly — multi-byte UTF-8 constants match byte sequences,
// and the empty constant matches every value (strings.Contains(s, "") is
// true), which the index models with a per-cohort empty-rule list since an
// automaton has no useful empty pattern.
//
// Concurrency: mutation (insert/remove/rebuild) and the scans of a filter
// run, including the lazy automaton rebuild inside collect, happen under the
// exclusive engine lock; the rule and node gauges read under the shared
// lock. Only the scan/match counters are read without it: /metrics loads
// them lock-free, so they are atomics (and deliberately NOT part of
// core.Stats: indexed and scanning engines must produce identical Stats for
// the differential tests).

// conTrigIdx is the position of the CON operator in trigOpNames /
// prepared.trig — the triggering slot the text index replaces.
const conTrigIdx = 5

// textCohortKey identifies one (class, property) cohort of contains rules.
// Bare-variable rules (`where c contains 'x'`, matching the URIref) carry
// property == rdf.SubjectProperty like their FilterData subject atoms, so
// they form an ordinary cohort keyed like the atoms that trigger them.
type textCohortKey struct {
	class    string
	property string
}

// textCohort holds one cohort's rules. patterns is authoritative within the
// index (constant -> sorted rule ids); the automaton is compiled from it
// lazily on the first scan after a mutation, so a burst of subscribes costs
// one rebuild instead of one per rule.
type textCohort struct {
	patterns map[string][]int64 // non-empty constant -> sorted rule ids
	empty    []int64            // rules with the empty constant: match every value
	ac       *textAutomaton     // nil = stale; compiled before the next scan
	nodes    int                // states of the compiled automaton (0 while stale)
}

// textIndex is the engine-wide contains-rule index, one cohort per
// (class, property).
type textIndex struct {
	cohorts map[textCohortKey]*textCohort
	rules   int // live (rule, constant) entries across all cohorts

	// scans counts atom values run through a cohort automaton; matches
	// counts the candidate (rule, atom) pairs emitted. Atomics: /metrics
	// reads them without the engine lock.
	scans   atomic.Int64
	matches atomic.Int64
}

func newTextIndex() *textIndex {
	return &textIndex{cohorts: make(map[textCohortKey]*textCohort)}
}

// insertSortedID inserts id into a sorted id slice, keeping it sorted.
// Rule ids are unique per constant (internTrigger dedups by rule text), so
// duplicates cannot occur.
func insertSortedID(ids []int64, id int64) []int64 {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeID removes id from an id slice, returning nil when it empties.
func removeID(ids []int64, id int64) []int64 {
	for i, v := range ids {
		if v == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// insert adds one contains rule's constant to its cohort and marks the
// cohort's automaton stale. Caller holds the exclusive engine lock.
func (t *textIndex) insert(class, property, value string, id int64) {
	k := textCohortKey{class: class, property: property}
	c := t.cohorts[k]
	if c == nil {
		c = &textCohort{patterns: make(map[string][]int64)}
		t.cohorts[k] = c
	}
	if value == "" {
		c.empty = insertSortedID(c.empty, id)
	} else {
		c.patterns[value] = insertSortedID(c.patterns[value], id)
	}
	c.ac, c.nodes = nil, 0
	t.rules++
}

// remove drops one swept rule from its cohort, releasing the pattern when
// it was the last rule sharing the constant and the cohort when it empties
// — the no-leak contract of the unsubscribe churn test. Caller holds the
// exclusive engine lock.
func (t *textIndex) remove(class, property, value string, id int64) {
	k := textCohortKey{class: class, property: property}
	c := t.cohorts[k]
	if c == nil {
		return
	}
	if value == "" {
		c.empty = removeID(c.empty, id)
	} else if ids := removeID(c.patterns[value], id); ids == nil {
		delete(c.patterns, value)
	} else {
		c.patterns[value] = ids
	}
	c.ac, c.nodes = nil, 0
	t.rules--
	if len(c.patterns) == 0 && len(c.empty) == 0 {
		delete(t.cohorts, k)
	}
}

// collect appends, for every atom in part, the (rule, uri) candidate pairs
// its cohort's contains rules derive — the exact pair set the
// FilterRulesCON triggering query would emit (one pair per matching rule,
// regardless of how often the constant occurs). Rule ids are emitted sorted
// per atom, so the pair order is a deterministic function of the atom
// order. scratch grows across atoms and is reused.
func (t *textIndex) collect(part []atoms.Atom, pairs []matchPair) []matchPair {
	var scratch []int64
	for i := range part {
		a := &part[i]
		c := t.cohorts[textCohortKey{class: a.Class, property: a.Property}]
		if c == nil {
			continue
		}
		t.scans.Add(1)
		scratch = append(scratch[:0], c.empty...)
		if len(c.patterns) > 0 {
			if c.ac == nil {
				c.ac = compileTextAutomaton(c.patterns)
				c.nodes = len(c.ac.nodes)
			}
			scratch = c.ac.scan(a.Value, scratch)
		}
		if len(scratch) == 0 {
			continue
		}
		scratch = dedupeSortedIDs(scratch)
		t.matches.Add(int64(len(scratch)))
		for _, id := range scratch {
			pairs = append(pairs, matchPair{rule: id, uri: a.URIRef})
		}
	}
	return pairs
}

// dedupeSortedIDs sorts ids and drops duplicates in place (a value
// containing a constant several times reports its rules once, like the SQL
// join's one row per (atom, rule) pair).
func dedupeSortedIDs(ids []int64) []int64 {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// ruleCount reports the live (rule, constant) entries (mdv_text_index_rules).
func (t *textIndex) ruleCount() int { return t.rules }

// nodeCount sums the states of every compiled cohort automaton
// (mdv_text_index_nodes). Cohorts mutated since their last scan report 0
// until the next filter run recompiles them.
func (t *textIndex) nodeCount() int {
	n := 0
	for _, c := range t.cohorts {
		n += c.nodes
	}
	return n
}

// textAutomaton is a byte-level Aho-Corasick automaton over one cohort's
// constants. States form the trie of the patterns; fail links point to the
// longest proper suffix of a state that is itself a trie prefix; dict links
// shortcut the fail chain to the nearest state with output, so the per-byte
// output walk touches only states that actually end a pattern.
type textAutomaton struct {
	nodes []textNode
}

type textNode struct {
	next map[byte]int32
	fail int32
	dict int32   // nearest fail-ancestor with output; -1 = none
	out  []int64 // rule ids of the patterns ending at this state
}

// compileTextAutomaton builds the automaton. Patterns are inserted in
// sorted order so state numbering — and therefore scan emission order
// before the per-atom sort — is deterministic across rebuilds.
func compileTextAutomaton(patterns map[string][]int64) *textAutomaton {
	keys := make([]string, 0, len(patterns))
	for p := range patterns {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	a := &textAutomaton{nodes: []textNode{{dict: -1}}}
	for _, p := range keys {
		cur := int32(0)
		for i := 0; i < len(p); i++ {
			b := p[i]
			nxt, ok := a.nodes[cur].next[b]
			if !ok {
				a.nodes = append(a.nodes, textNode{dict: -1})
				nxt = int32(len(a.nodes) - 1)
				if a.nodes[cur].next == nil {
					a.nodes[cur].next = make(map[byte]int32)
				}
				a.nodes[cur].next[b] = nxt
			}
			cur = nxt
		}
		a.nodes[cur].out = append(a.nodes[cur].out, patterns[p]...)
	}
	// Breadth-first fail/dict links; parents are always processed before
	// their children, which is all the fail recurrence needs.
	queue := make([]int32, 0, len(a.nodes))
	for b := 0; b < 256; b++ {
		if v, ok := a.nodes[0].next[byte(b)]; ok {
			queue = append(queue, v) // depth 1: fail = root (zero value)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		un := &a.nodes[u]
		if f := un.fail; len(a.nodes[f].out) > 0 {
			un.dict = f
		} else {
			un.dict = a.nodes[f].dict
		}
		for b := 0; b < 256; b++ {
			v, ok := un.next[byte(b)]
			if !ok {
				continue
			}
			f := un.fail
			for {
				if w, ok := a.nodes[f].next[byte(b)]; ok {
					a.nodes[v].fail = w
					break
				}
				if f == 0 {
					a.nodes[v].fail = 0
					break
				}
				f = a.nodes[f].fail
			}
			queue = append(queue, v)
		}
	}
	return a
}

// scan runs value through the automaton, appending the rule ids of every
// pattern occurrence to out (duplicates possible across occurrences; the
// caller dedupes). Amortized O(len(value) + occurrences): each byte
// advances the state or walks fail links paid for by earlier advances, and
// the dict chain visits only output states.
func (a *textAutomaton) scan(value string, out []int64) []int64 {
	cur := int32(0)
	for i := 0; i < len(value); i++ {
		b := value[i]
		for {
			if nxt, ok := a.nodes[cur].next[b]; ok {
				cur = nxt
				break
			}
			if cur == 0 {
				break
			}
			cur = a.nodes[cur].fail
		}
		for n := cur; n != -1; n = a.nodes[n].dict {
			out = append(out, a.nodes[n].out...)
		}
	}
	return out
}

// initTextIndex builds the engine's contains-rule index from the canonical
// FilterRulesCON table — empty at bootstrap, populated after a snapshot
// load.
func (e *Engine) initTextIndex() error {
	e.text = newTextIndex()
	rows, err := e.db.Query(`SELECT rule_id, class, property, value FROM FilterRulesCON`)
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
		e.text.insert(r[1].Str, r[2].Str, r[3].Str, r[0].Int)
	}
	return nil
}
