package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mdv/internal/atoms"
	"mdv/internal/rdf"
)

// checkTextMirror asserts the derived text index agrees with the canonical
// FilterRulesCON table entry for entry: every (class, property, constant,
// rule) row is indexed in exactly its cohort, and nothing else is — the
// no-leak contract of the churn test and the differential.
func checkTextMirror(t *testing.T, e *Engine) {
	t.Helper()
	if e.text == nil {
		return
	}
	rows, err := e.db.Query(`SELECT rule_id, class, property, value FROM FilterRulesCON`)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		want = append(want, fmt.Sprintf("%s|%s|%q|%d", r[1].Str, r[2].Str, r[3].Str, r[0].Int))
	}
	var got []string
	for k, c := range e.text.cohorts {
		if len(c.patterns) == 0 && len(c.empty) == 0 {
			t.Errorf("text index holds empty cohort %+v", k)
		}
		for _, id := range c.empty {
			got = append(got, fmt.Sprintf("%s|%s|%q|%d", k.class, k.property, "", id))
		}
		for p, ids := range c.patterns {
			for _, id := range ids {
				got = append(got, fmt.Sprintf("%s|%s|%q|%d", k.class, k.property, p, id))
			}
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("text index diverged from canonical FilterRulesCON:\n got  %v\n want %v", got, want)
	}
	if e.text.ruleCount() != len(want) {
		t.Errorf("text index ruleCount = %d, canonical rows = %d", e.text.ruleCount(), len(want))
	}
}

// textFuzzFragments compose random patterns and subjects: ASCII, multi-byte
// UTF-8 runes (so constants can split across byte boundaries), and raw
// invalid-UTF-8 bytes (the semantics are byte-wise, not rune-wise).
var textFuzzFragments = []string{
	"a", "b", "0", ".", "ü", "ß", "€", "🚲", "\xc3", "\xbc", "\xff", "de", "pa",
}

func textFuzzString(rng *rand.Rand, frags int) string {
	var b strings.Builder
	for i := 0; i < frags; i++ {
		b.WriteString(textFuzzFragments[rng.Intn(len(textFuzzFragments))])
	}
	return b.String()
}

// TestTextAutomatonMatchesStringsContains fuzzes the Aho-Corasick automaton
// against the strings.Contains ground truth (the SQL CONTAINS baseline) over
// random byte strings, including multi-byte UTF-8 sequences split across
// pattern boundaries and invalid UTF-8.
func TestTextAutomatonMatchesStringsContains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		patterns := make(map[string][]int64)
		nextID := int64(1)
		for i := 0; i < 1+rng.Intn(8); i++ {
			p := textFuzzString(rng, 1+rng.Intn(4))
			patterns[p] = insertSortedID(patterns[p], nextID)
			nextID++
		}
		a := compileTextAutomaton(patterns)
		for probe := 0; probe < 20; probe++ {
			v := textFuzzString(rng, rng.Intn(8))
			got := dedupeSortedIDs(a.scan(v, nil))
			var want []int64
			for p, ids := range patterns {
				if strings.Contains(v, p) {
					want = append(want, ids...)
				}
			}
			want = dedupeSortedIDs(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: scan(%q) over %v = %v, strings.Contains says %v",
					trial, v, patterns, got, want)
			}
		}
	}
}

// TestTextIndexEdgeSemantics pins the index against the CONTAINS corner
// cases directly: the empty constant matches every cohort value (including
// the empty value), matching is case-sensitive, multi-byte constants match
// byte-wise, and occurrences collapse to one pair per rule.
func TestTextIndexEdgeSemantics(t *testing.T) {
	ti := newTextIndex()
	ti.insert("C", "p", "", 1)    // empty constant
	ti.insert("C", "p", "ü", 2)   // multi-byte
	ti.insert("C", "p", "AB", 3)  // case-sensitive
	ti.insert("C", "p", "aa", 4)  // overlapping occurrences
	ti.insert("C", "q", "zzz", 5) // other cohort
	ti.insert("D", "p", "ü", 6)   // other class, same property
	atom := func(uri, class, prop, value string) atoms.Atom {
		return atoms.Atom{Statement: rdf.Statement{URIRef: uri, Class: class, Property: prop, Value: value}}
	}
	cases := []struct {
		value string
		want  []int64
	}{
		{"", []int64{1}},       // Contains(s, "") is true even for s == ""
		{"xüx", []int64{1, 2}}, // multi-byte needle inside ASCII
		{"x\xc3x", []int64{1}}, // first byte of ü alone does not match
		{"ab", []int64{1}},     // 'AB' is case-sensitive
		{"AB", []int64{1, 3}},
		{"aaaa", []int64{1, 4}}, // three occurrences, one pair
		{"zzz", []int64{1}},     // 'zzz' lives in cohort (C,q), not (C,p)
	}
	for _, tc := range cases {
		pairs := ti.collect([]atoms.Atom{atom("u", "C", "p", tc.value)}, nil)
		got := make([]int64, 0, len(pairs))
		for _, p := range pairs {
			if p.uri != "u" {
				t.Errorf("value %q: pair carries uri %q", tc.value, p.uri)
			}
			got = append(got, p.rule)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("collect(%q) = %v, want %v", tc.value, got, tc.want)
		}
	}
	// A cohort the atom does not belong to stays silent.
	if pairs := ti.collect([]atoms.Atom{atom("u", "E", "p", "üAB")}, nil); len(pairs) != 0 {
		t.Errorf("unknown cohort matched: %v", pairs)
	}
}

// TestTextIndexChurnReleasesDeadRules cycles subscribe → publish →
// unsubscribe with shared constants across subscribers and asserts the text
// index fully releases dead rule constants every cycle — no pattern, cohort,
// or automaton state survives — and that the filter tables return to their
// pre-subscribe bytes (the PR 5 differential, extended to the derived
// index).
func TestTextIndexChurnReleasesDeadRules(t *testing.T) {
	e := newTestEngine(t)
	if e.text == nil {
		t.Fatal("text index should be enabled by default")
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	before := dumpFilterState(t, e)

	churnRules := []string{
		`search CycleProvider c register c where c.serverHost contains 'passau'`,
		`search CycleProvider c register c where c.serverHost contains ''`,
		`search CycleProvider c register c where c contains 'doc'`,
		`search CycleProvider c register c where c.serverHost contains 'grün'`,
		`search DataProvider d register d where d.theme contains 'astro'`,
		example331,
	}
	for cycle := 0; cycle < 3; cycle++ {
		var ids []int64
		for _, r := range churnRules {
			id, _, err := e.Subscribe("lmr1", r)
			if err != nil {
				t.Fatalf("cycle %d: subscribe %q: %v", cycle, r, err)
			}
			ids = append(ids, id)
		}
		// Shared constants: refcount 2 on the first three contains rules, so
		// the sweep must wait for the second release.
		for _, r := range churnRules[:3] {
			id, _, err := e.Subscribe("lmr2", r)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		checkTextMirror(t, e)
		if e.text.ruleCount() == 0 {
			t.Fatalf("cycle %d: no contains rules indexed", cycle)
		}
		// Publish through the index (compiles the automata) and delete again.
		uri := fmt.Sprintf("churn%d.rdf", cycle)
		doc := rdf.NewDocument(uri)
		host := doc.NewResource("host", "CycleProvider")
		host.Add("serverHost", rdf.Lit("grün.uni-passau.de"))
		host.Add("serverPort", rdf.Lit("80"))
		if _, err := e.RegisterDocument(doc); err != nil {
			t.Fatal(err)
		}
		if e.text.nodeCount() == 0 {
			t.Fatalf("cycle %d: publish compiled no automaton", cycle)
		}
		if _, err := e.DeleteDocument(uri); err != nil {
			t.Fatal(err)
		}
		for i := len(ids) - 1; i >= 0; i-- {
			if err := e.Unsubscribe(ids[i]); err != nil {
				t.Fatalf("cycle %d: unsubscribe: %v", cycle, err)
			}
		}
		if r, c, n := e.text.ruleCount(), len(e.text.cohorts), e.text.nodeCount(); r != 0 || c != 0 || n != 0 {
			t.Fatalf("cycle %d: text index leaked after full unsubscribe: rules=%d cohorts=%d nodes=%d", cycle, r, c, n)
		}
		checkTextMirror(t, e)
	}
	if after := dumpFilterState(t, e); after != before {
		t.Errorf("filter state after churn differs from pre-subscribe state:\n%s", diffDumps(before, after))
	}
}

// TestBrowseSubstringContract locks in the Browse contract documented on
// the method: byte-wise case-sensitive substring over the URI reference OR
// any property value's lexical form (reference targets included), scoped to
// the class; the empty filter matches everything of the class. This is
// deliberately broader than a rule-level `contains`, which tests exactly
// one (class, property) value.
func TestBrowseSubstringContract(t *testing.T) {
	e := newTestEngine(t)
	doc := rdf.NewDocument("browse.rdf")
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit("Grün.uni-passau.de"))
	host.Add("serverPort", rdf.Lit("5874"))
	host.Add("serverInformation", rdf.Ref("browse.rdf#info"))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit("92"))
	info.Add("cpu", rdf.Lit("600"))
	if _, err := e.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		class, filter string
		want          []string
	}{
		{"CycleProvider", "", []string{"browse.rdf#host"}},       // empty filter: whole class
		{"CycleProvider", "rdf#ho", []string{"browse.rdf#host"}}, // match via the URI reference
		{"CycleProvider", "Grün", []string{"browse.rdf#host"}},   // match via a property value, multi-byte
		{"CycleProvider", "grün", nil},                           // case-sensitive: no match
		{"CycleProvider", "#info", []string{"browse.rdf#host"}},  // match via a reference target URI
		{"CycleProvider", "5874", []string{"browse.rdf#host"}},   // numeric property's lexical form
		{"CycleProvider", "92", nil},                             // other resource's value: class-scoped
		{"ServerInformation", "rdf#ho", nil},                     // URIRef match is class-scoped too
		{"ServerInformation", "92", []string{"browse.rdf#info"}},
	}
	for _, tc := range cases {
		rs, err := e.Browse(tc.class, tc.filter)
		if err != nil {
			t.Fatalf("Browse(%q, %q): %v", tc.class, tc.filter, err)
		}
		got := make([]string, 0, len(rs))
		for _, r := range rs {
			got = append(got, r.URIRef)
		}
		if fmt.Sprint(got) != fmt.Sprint([]string(tc.want)) {
			t.Errorf("Browse(%q, %q) = %v, want %v", tc.class, tc.filter, got, tc.want)
		}
	}
}
