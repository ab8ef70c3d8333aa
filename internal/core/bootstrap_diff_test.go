package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// Differential test of a new join rule's bootstrap (initializeJoin): a rule
// subscribed after the metadata is registered must materialize exactly what
// the same rule subscribed before it does, where every match arrived through
// the filter's delta steps. The table runs every branch of buildGroupSQL —
// self, URI equijoin, string- and numeric-property equijoin, and the general
// comparison on a URI or a property — with the left and then the right input
// as the smaller side (the one the bootstrap loads as its delta), registering
// either variable, under typed indexes and under the CAST ablation.

func bootstrapSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("Host", rdf.PropertyDef{Name: "grp", Type: rdf.TypeString})
	s.MustAddProperty("Host", rdf.PropertyDef{Name: "tag", Type: rdf.TypeString})
	s.MustAddProperty("Host", rdf.PropertyDef{Name: "mem", Type: rdf.TypeInteger})
	s.MustAddProperty("Host", rdf.PropertyDef{Name: "load", Type: rdf.TypeFloat})
	s.MustAddProperty("Host", rdf.PropertyDef{Name: "peak", Type: rdf.TypeFloat})
	s.MustAddProperty("Host", rdf.PropertyDef{
		Name: "info", Type: rdf.TypeResource, RefClass: "Info", RefKind: rdf.WeakRef})
	s.MustAddProperty("Info", rdf.PropertyDef{Name: "grp", Type: rdf.TypeString})
	s.MustAddProperty("Info", rdf.PropertyDef{Name: "label", Type: rdf.TypeString})
	s.MustAddProperty("Info", rdf.PropertyDef{Name: "cpu", Type: rdf.TypeInteger})
	s.MustAddProperty("Info", rdf.PropertyDef{Name: "temp", Type: rdf.TypeFloat})
	return s
}

// bootstrapDocs are twelve documents of one Host and one Info each. A
// quarter of the hosts and a third of the infos are in group 'a', so a
// grp = 'a' conjunct makes its variable's input the smaller one. Hosts
// reference the info of another document; numeric values use several
// spellings of equal numbers so typed and CAST comparisons must agree.
func bootstrapDocs() []*rdf.Document {
	tags := []string{"red", "green", "blue"}
	floats := []string{"0", "1", "2.0", "3", "04"}
	ints := []string{"0", "1", "2", "3", "04"}
	var docs []*rdf.Document
	for i := 0; i < 12; i++ {
		doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
		grp := func(every int) string {
			if i%every == 0 {
				return "a"
			}
			return "b"
		}
		host := doc.NewResource("host", "Host")
		host.Add("grp", rdf.Lit(grp(4)))
		host.Add("tag", rdf.Lit(tags[i%3]))
		host.Add("mem", rdf.Lit(fmt.Sprint(i%5)))
		host.Add("load", rdf.Lit(floats[i%5]))
		host.Add("peak", rdf.Lit(floats[(i*2)%5]))
		host.Add("info", rdf.Ref(fmt.Sprintf("doc%d.rdf#info", (i*7)%12)))
		info := doc.NewResource("info", "Info")
		info.Add("grp", rdf.Lit(grp(3)))
		info.Add("label", rdf.Lit(tags[(i/2)%3]))
		info.Add("cpu", rdf.Lit(ints[(i+1)%5]))
		info.Add("temp", rdf.Lit(floats[(i+2)%5]))
		docs = append(docs, doc)
	}
	return docs
}

// ruleResultsDump renders RuleResults sorted by (rule, resource).
func ruleResultsDump(t *testing.T, e *Engine) string {
	t.Helper()
	rows, err := e.db.Query(`SELECT rule_id, uri_reference FROM RuleResults`)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		lines = append(lines, fmt.Sprintf("%d %s", r[0].Int, r[1].Str))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// bootstrapCase is one rule whose end rule is the join rule under test, and
// the input the bootstrap must pick as its delta, 'L' or 'R': the smaller
// one. The restricting predicate (grp = 'a', or the bare merge's first
// conjunct) decides which input is smaller.
type bootstrapCase struct {
	branch, rule string
	smaller      byte
}

func TestJoinBootstrapDifferential(t *testing.T) {
	cases := []bootstrapCase{
		{"self comparison", `search Host h register h where h.load < h.peak`, 'L'},
		{"self equality", `search Host h register h where h.load = h.peak`, 'L'},
		{"URI equijoin, bare merge", `search Host h register h where h.grp = 'a' and h.mem >= 1`, 'L'},
		{"URI equijoin, bare merge", `search Host h register h where h.grp = 'b' and h.mem >= 4`, 'R'},
	}
	joins := []struct{ branch, pred string }{
		{"URI equijoin", "h.info = i"},
		{"string-property equijoin", "h.tag = i.label"},
		{"numeric-property equijoin", "h.mem = i.cpu"},
		{"general comparison on a URI", "h.info != i"},
		{"general comparison on a property", "h.load < i.temp"},
	}
	for _, j := range joins {
		for _, reg := range []string{"h", "i"} {
			rule := `search Host h, Info i register ` + reg + ` where ` + j.pred + ` and `
			cases = append(cases,
				bootstrapCase{j.branch, rule + `h.grp = 'a'`, 'L'},
				bootstrapCase{j.branch, rule + `i.grp = 'a'`, 'R'})
		}
	}

	docs := bootstrapDocs()
	for _, opts := range []Options{{}, {DisableTypedIndexes: true}} {
		for _, c := range cases {
			name := fmt.Sprintf("typed=%v/%s/%c/%s", !opts.DisableTypedIndexes, c.branch, c.smaller, c.rule)
			t.Run(name, func(t *testing.T) {
				early, err := NewEngineWithOptions(bootstrapSchema(), opts)
				if err != nil {
					t.Fatal(err)
				}
				late, err := NewEngineWithOptions(bootstrapSchema(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := early.Subscribe("lmr", c.rule); err != nil {
					t.Fatal(err)
				}
				if _, err := early.RegisterDocuments(docs); err != nil {
					t.Fatal(err)
				}
				if _, err := late.RegisterDocuments(docs); err != nil {
					t.Fatal(err)
				}
				subID, _, err := late.Subscribe("lmr", c.rule)
				if err != nil {
					t.Fatal(err)
				}

				// The case must reach the side it names: the end rule is a
				// join rule whose named input is strictly the smaller one
				// (a self rule has its left input only).
				ends, err := late.EndRulesOf(subID)
				if err != nil || len(ends) != 1 {
					t.Fatalf("end rules %v, %v", ends, err)
				}
				jr, err := late.db.Query(`SELECT left_rule, right_rule FROM JoinRules WHERE rule_id = ?`,
					rdb.NewInt(ends[0]))
				if err != nil || jr.Len() != 1 {
					t.Fatalf("end rule %d is not a join rule (%v)", ends[0], err)
				}
				size := func(rule int64) int {
					uris, err := late.RuleResultsOf(rule)
					if err != nil {
						t.Fatal(err)
					}
					return len(uris)
				}
				left, right := size(jr.Data[0][0].Int), size(jr.Data[0][1].Int)
				self := strings.HasPrefix(c.branch, "self")
				if c.smaller == 'L' && !self && left >= right || c.smaller == 'R' && right >= left {
					t.Fatalf("inputs have %d (left) and %d (right) results; the case wants %c smaller",
						left, right, c.smaller)
				}

				got, want := ruleResultsDump(t, late), ruleResultsDump(t, early)
				if got != want {
					t.Fatalf("late subscription's RuleResults differ from the early one's:\n late:\n%s\n early:\n%s",
						got, want)
				}
				if size(ends[0]) == 0 {
					t.Fatal("the join rule matches nothing; the comparison proves nothing")
				}
				checkNoScratch(t, late)
			})
		}
	}
}
