package core

import (
	"fmt"
	"strings"
	"testing"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// Tests for the per-operator triggering machinery (FilterRules tables).

func floatSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("Offer", rdf.PropertyDef{Name: "price", Type: rdf.TypeFloat})
	s.MustAddProperty("Offer", rdf.PropertyDef{Name: "title", Type: rdf.TypeString})
	return s
}

func offerDoc(uri, price, title string) *rdf.Document {
	doc := rdf.NewDocument(uri)
	o := doc.NewResource("o", "Offer")
	o.Add("price", rdf.Lit(price))
	o.Add("title", rdf.Lit(title))
	return doc
}

// TestNumericEqualityLexicalVariance: numeric equality must reconvert
// (paper §3.3.4: constants stored as strings) — "8.50" matches the rule
// constant 8.5 even though the lexical forms differ.
func TestNumericEqualityLexicalVariance(t *testing.T) {
	e, err := NewEngine(floatSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Subscribe("lmr", `search Offer o register o where o.price = 8.5`); err != nil {
		t.Fatal(err)
	}
	// Lexically different, numerically equal.
	ps, err := e.RegisterDocument(offerDoc("a.rdf", "8.50", "cheap"))
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr"); cs == nil || len(cs.Upserts) != 1 {
		t.Errorf("8.50 did not match rule constant 8.5: %+v", cs)
	}
	// Integer lexical form of the same value.
	if _, _, err := e.Subscribe("lmr", `search Offer o register o where o.price = 12`); err != nil {
		t.Fatal(err)
	}
	ps, err = e.RegisterDocument(offerDoc("b.rdf", "12.0", "twelve"))
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr"); cs == nil || len(cs.Upserts) != 1 {
		t.Errorf("12.0 did not match rule constant 12: %+v", cs)
	}
	// String equality must NOT be numeric: a title rule stays exact.
	if _, _, err := e.Subscribe("lmr", `search Offer o register o where o.title = '12'`); err != nil {
		t.Fatal(err)
	}
	ps, err = e.RegisterDocument(offerDoc("c.rdf", "1", "12.0"))
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr"); cs != nil {
		for _, up := range cs.Upserts {
			if up.Resource.URIRef == "c.rdf#o" {
				t.Error("string equality coerced numerically")
			}
		}
	}
}

// TestContainsOnBareVariable: contains applies to the URI reference when
// used on a bare variable.
func TestContainsOnBareVariable(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr",
		`search CycleProvider c register c where c contains 'passau'`); err != nil {
		t.Fatal(err)
	}
	doc := rdf.NewDocument("passau-north.rdf")
	doc.NewResource("cp", "CycleProvider")
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr"); cs == nil || len(cs.Upserts) != 1 {
		t.Errorf("URI contains match failed: %+v", cs)
	}
	doc2 := rdf.NewDocument("munich.rdf")
	doc2.NewResource("cp", "CycleProvider")
	ps, err = e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Error("non-matching URI delivered")
	}
}

// TestAllComparisonOperatorsTrigger: each operator lands in its own filter
// table and matches correctly.
func TestAllComparisonOperatorsTrigger(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		rule    string
		match   string // serverPort value that matches
		nomatch string
	}{
		{`search CycleProvider c register c where c.serverPort = 10`, "10", "11"},
		{`search CycleProvider c register c where c.serverPort != 10`, "11", "10"},
		{`search CycleProvider c register c where c.serverPort < 10`, "9", "10"},
		{`search CycleProvider c register c where c.serverPort <= 10`, "10", "11"},
		{`search CycleProvider c register c where c.serverPort > 10`, "11", "10"},
		{`search CycleProvider c register c where c.serverPort >= 10`, "10", "9"},
	}
	subByRule := map[int]int64{}
	for i, c := range cases {
		id, _, err := e.Subscribe("lmr", c.rule)
		if err != nil {
			t.Fatalf("%s: %v", c.rule, err)
		}
		subByRule[i] = id
	}
	docNum := 0
	register := func(port string) map[int64]bool {
		t.Helper()
		docNum++
		doc := rdf.NewDocument(rdf.NewDocument("x").URI + string(rune('a'+docNum)) + ".rdf")
		cp := doc.NewResource("cp", "CycleProvider")
		cp.Add("serverPort", rdf.Lit(port))
		ps, err := e.RegisterDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]bool{}
		if cs := changesetOf(ps, "lmr"); cs != nil {
			for _, up := range cs.Upserts {
				for _, id := range up.SubIDs {
					got[id] = true
				}
			}
		}
		return got
	}
	for i, c := range cases {
		if got := register(c.match); !got[subByRule[i]] {
			t.Errorf("rule %q did not match port %s", c.rule, c.match)
		}
		if got := register(c.nomatch); got[subByRule[i]] {
			t.Errorf("rule %q wrongly matched port %s", c.rule, c.nomatch)
		}
	}
	// Table placement: one row per operator table (NE with a numeric
	// constant lands in the reconverting NEN table).
	for _, table := range []string{"FilterRulesEQN", "FilterRulesNEN", "FilterRulesLT",
		"FilterRulesLE", "FilterRulesGT", "FilterRulesGE"} {
		if n := e.count(table); n != 1 {
			t.Errorf("%s has %d rows, want 1", table, n)
		}
	}
}

// TestFailedTriggeringLeavesNoScratch: a triggering query that fails midway
// through must not leave the batch's atoms in FilterData, where they would match (or fail) again in the next run. Under
// the CAST ablation a non-numeric value in a numerically compared property
// makes the LT query fail after the atoms were loaded.
func TestFailedTriggeringLeavesNoScratch(t *testing.T) {
	mk := func() *Engine {
		e, err := NewEngineWithOptions(floatSchema(), Options{DisableTypedIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range []string{
			`search Offer o register o where o.price < 5`,
			`search Offer o register o where o.title contains 'leak'`,
		} {
			if _, _, err := e.Subscribe("lmr", rule); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	e, fresh := mk(), mk()

	bad := atoms.Decompose(e.schema, offerDoc("bad.rdf", "1", "leaky").Resources[0])
	for i := range bad {
		if bad[i].Property == "price" {
			bad[i].Value = "not-a-number"
		}
	}
	if _, err := e.runFilter(bad, nil, modeCollect); err == nil {
		t.Fatal("triggering accepted a value CAST rejects; the test drives no failure")
	}
	checkNoScratch(t, e)

	doc := offerDoc("a.rdf", "3", "no match here")
	got, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatalf("publish after a failed run: %v", err)
	}
	want, err := fresh.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderPublishSet(got), renderPublishSet(want); g != w {
		t.Errorf("publish after a failed run diverged from a fresh engine:\n got:\n%s\nwant:\n%s", g, w)
	}
	if g, w := e.Stats().TriggeringMatches, fresh.Stats().TriggeringMatches; g != w {
		t.Errorf("publish after a failed run derived %d triggering matches, a fresh engine %d", g, w)
	}
}

// TestTextAtomsStoreNoNumValue: only a property the schema declares numeric
// stores a num_value — a 64 KiB title and a numeric-looking one store NULL,
// on registration and on update — and the matches stay those of string and
// numeric comparison: the contains and string-equality rules read value,
// the range rule reads the price's num_value.
func TestTextAtomsStoreNoNumValue(t *testing.T) {
	e, err := NewEngine(floatSchema())
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]int64{}
	for name, rule := range map[string]string{
		"lt":  `search Offer o register o where o.price < 5`,
		"con": `search Offer o register o where o.title contains 'leak'`,
		"eq":  `search Offer o register o where o.title = '42'`,
	} {
		id, _, err := e.Subscribe(name, rule)
		if err != nil {
			t.Fatal(err)
		}
		subs[name] = id
	}
	long := strings.Repeat("x", 64<<10-4)
	check := func(stage string, want map[string][]string) {
		t.Helper()
		err := e.DB().QueryFunc(`SELECT property, value, num_value FROM Statements`, nil, func(row []rdb.Value) error {
			if numeric := row[0].Str == "price"; numeric == row[2].IsNull() {
				t.Errorf("%s: %s = %.20q stores num_value %v", stage, row[0].Str, row[1].Str, row[2])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, uris := range want {
			res, err := e.MatchingResources(subs[name])
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res {
				got = append(got, r.URIRef)
			}
			if fmt.Sprint(got) != fmt.Sprint(uris) {
				t.Errorf("%s: %s matches %v, want %v", stage, name, got, uris)
			}
		}
	}
	for _, doc := range []*rdf.Document{offerDoc("a.rdf", "3", "42"), offerDoc("b.rdf", "9", long+"leak")} {
		if _, err := e.RegisterDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	check("registered", map[string][]string{"lt": {"a.rdf#o"}, "con": {"b.rdf#o"}, "eq": {"a.rdf#o"}})
	for _, doc := range []*rdf.Document{offerDoc("a.rdf", "7", "42"), offerDoc("b.rdf", "1", long+"leak!")} {
		if _, err := e.RegisterDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	check("updated", map[string][]string{"lt": {"b.rdf#o"}, "con": {"b.rdf#o"}, "eq": {"a.rdf#o"}})
	if _, err := e.RegisterDocument(offerDoc("b.rdf", "1", long)); err != nil {
		t.Fatal(err)
	}
	check("contains lost", map[string][]string{"lt": {"b.rdf#o"}, "con": nil, "eq": {"a.rdf#o"}})
}
