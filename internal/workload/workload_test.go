package workload

import (
	"fmt"
	"testing"

	"mdv/internal/core"
)

// subscribeBase registers the generator's rule base at a fresh engine.
func subscribeBase(t *testing.T, g Generator) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.RuleBase; i++ {
		if _, _, err := e.Subscribe("lmr", g.Rule(i)); err != nil {
			t.Fatalf("rule %d (%s): %v", i, g.Rule(i), err)
		}
	}
	return e
}

func matchedBy(t *testing.T, ps *core.PublishSet) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, g := range ps.Groups {
		for _, up := range g.Changeset.Upserts {
			out[up.Resource.URIRef] = len(up.SubIDs)
		}
	}
	return out
}

// TestOIDPairing: document i is matched by exactly rule i.
func TestOIDPairing(t *testing.T) {
	g := Generator{Type: OID, RuleBase: 20}
	e := subscribeBase(t, g)
	ps, err := e.RegisterDocuments(g.Batch(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	matched := matchedBy(t, ps)
	if len(matched) != 10 {
		t.Fatalf("matched %d documents, want 10", len(matched))
	}
	for uri, n := range matched {
		if n != 1 {
			t.Errorf("%s matched by %d subscriptions, want 1", uri, n)
		}
	}
	// OID decomposition requires no join rules.
	if st := e.Stats(); st.FilterIterations != 0 {
		t.Errorf("OID ran %d join iterations", st.FilterIterations)
	}
}

// TestPATHPairing: one-to-one matching through the reference path.
func TestPATHPairing(t *testing.T) {
	g := Generator{Type: PATH, RuleBase: 20}
	e := subscribeBase(t, g)
	ps, err := e.RegisterDocuments(g.Batch(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	matched := matchedBy(t, ps)
	if len(matched) != 10 {
		t.Fatalf("matched %d documents, want 10", len(matched))
	}
	for uri, n := range matched {
		if n != 1 {
			t.Errorf("%s matched by %d subscriptions, want 1", uri, n)
		}
	}
	// PATH requires decomposition and join-rule evaluation.
	if st := e.Stats(); st.FilterIterations == 0 {
		t.Error("PATH ran no join iterations")
	}
	// PATH shares one ANY triggering rule and one join group across the
	// whole base (the dependency-graph merge of §3.3.2).
	if got := e.RuleGroupCount(); got != 1 {
		t.Errorf("PATH rule base uses %d groups, want 1", got)
	}
}

// TestJOINPairing: the three-predicate rule still matches one-to-one; its
// shared predicates (contains, cpu = 600) are deduplicated across the base.
func TestJOINPairing(t *testing.T) {
	g := Generator{Type: JOIN, RuleBase: 20}
	e := subscribeBase(t, g)
	// Rule base: 1 shared CON trigger + 1 shared cpu EQN trigger + 20
	// memory EQN triggers + per-rule join rules.
	ps, err := e.RegisterDocuments(g.Batch(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	matched := matchedBy(t, ps)
	if len(matched) != 10 {
		t.Fatalf("matched %d documents, want 10", len(matched))
	}
	for uri, n := range matched {
		if n != 1 {
			t.Errorf("%s matched by %d subscriptions, want 1", uri, n)
		}
	}
	st := e.Stats()
	if st.AtomicRulesShared == 0 {
		t.Error("JOIN base shares no atomic rules")
	}
}

// TestCOMPPercentage: every document matches the configured percentage of
// the rule base.
func TestCOMPPercentage(t *testing.T) {
	for _, pct := range []float64{0.01, 0.10, 0.20} {
		g := Generator{Type: COMP, RuleBase: 100, MatchPercent: pct}
		e := subscribeBase(t, g)
		ps, err := e.RegisterDocuments(g.Batch(0, 5))
		if err != nil {
			t.Fatal(err)
		}
		want := int(100 * pct)
		matched := matchedBy(t, ps)
		if len(matched) != 5 {
			t.Fatalf("pct %.2f: matched %d documents", pct, len(matched))
		}
		for uri, n := range matched {
			if n != want {
				t.Errorf("pct %.2f: %s matched by %d rules, want %d", pct, uri, n, want)
			}
		}
	}
}

// TestBatchOffsets: batches at different offsets produce distinct URIs.
func TestBatchOffsets(t *testing.T) {
	g := Generator{Type: PATH, RuleBase: 10}
	b1 := g.Batch(0, 5)
	b2 := g.Batch(5, 5)
	seen := map[string]bool{}
	for _, docs := range [][]int{{0}, {1}} {
		_ = docs
	}
	for _, d := range append(b1, b2...) {
		if seen[d.URI] {
			t.Fatalf("duplicate URI %s", d.URI)
		}
		seen[d.URI] = true
	}
}

// TestRuleTexts: generated rules parse and have the Figure 10 shapes.
func TestRuleTexts(t *testing.T) {
	cases := []struct {
		g    Generator
		want string
	}{
		{Generator{Type: OID, RuleBase: 5}, `search CycleProvider c register c where c = 'doc3.rdf#host'`},
		{Generator{Type: COMP, RuleBase: 5}, `search CycleProvider c register c where c.synthValue > 3`},
		{Generator{Type: PATH, RuleBase: 5}, `search CycleProvider c register c where c.serverInformation.memory = 3`},
	}
	for _, c := range cases {
		if got := c.g.Rule(3); got != c.want {
			t.Errorf("%v: rule = %q, want %q", c.g.Type, got, c.want)
		}
	}
	if len((Generator{Type: JOIN, RuleBase: 2}).Rules()) != 2 {
		t.Error("Rules() length")
	}
	for _, typ := range []RuleType{OID, COMP, PATH, JOIN} {
		if typ.String() == "" {
			t.Error("empty type name")
		}
	}
}

// TestDocumentsValidate: generated documents conform to the schema.
func TestDocumentsValidate(t *testing.T) {
	s := Schema()
	for _, typ := range []RuleType{OID, COMP, PATH, JOIN} {
		g := Generator{Type: typ, RuleBase: 10, MatchPercent: 0.1}
		for i := 0; i < 3; i++ {
			if err := s.ValidateDocument(g.Document(i)); err != nil {
				t.Errorf("%v doc %d: %v", typ, i, err)
			}
		}
	}
}

// TestScaleSmoke registers a moderately sized rule base and batch to guard
// against superlinear blowups in registration itself.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := Generator{Type: PATH, RuleBase: 500}
	e := subscribeBase(t, g)
	ps, err := e.RegisterDocuments(g.Batch(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range ps.Groups {
		total += len(g.Changeset.Upserts)
	}
	if total != 100 {
		t.Errorf("matched %d, want 100", total)
	}
	if e.AtomicRuleCount() != 500+500+1 { // memory triggers + joins + shared ANY
		t.Errorf("atomic rules = %d", e.AtomicRuleCount())
	}
}

func ExampleGenerator() {
	g := Generator{Type: PATH, RuleBase: 3}
	fmt.Println(g.Rule(0))
	fmt.Println(g.Document(0).URI)
	// Output:
	// search CycleProvider c register c where c.serverInformation.memory = 0
	// doc0.rdf
}
