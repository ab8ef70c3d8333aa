package repository_test

import (
	"strings"
	"testing"

	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

// TestCachedSetValuesCanonicalOrder: a set-valued property renders in the
// MDP's canonical order at every LMR, whatever the cache's history. A cache
// that held theme = {c} and then got {a, b, c} keeps c's row and inserts
// a and b after it; read back in row order it would answer [c a b], while
// a cache filled afresh and the MDP itself answer [a b c].
func TestCachedSetValuesCanonicalOrder(t *testing.T) {
	schema := rdf.NewSchema()
	schema.MustAddProperty("DataProvider", rdf.PropertyDef{Name: "title", Type: rdf.TypeString})
	schema.MustAddProperty("DataProvider", rdf.PropertyDef{Name: "theme", Type: rdf.TypeString, SetValued: true})
	doc := func(themes ...string) *rdf.Document {
		d := rdf.NewDocument("dp.rdf")
		dp := d.NewResource("dp", "DataProvider")
		for _, th := range themes {
			dp.Add("theme", rdf.Lit(th))
		}
		dp.Add("title", rdf.Lit("maps"))
		return d
	}
	const rule = `search DataProvider d register d`

	mdp, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	node := func(name string) *lmr.Node {
		n, err := lmr.New(name, schema, mdp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddSubscription(rule); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if err := mdp.RegisterDocument(doc("c")); err != nil {
		t.Fatal(err)
	}
	longLived := node("lmr-long")
	if err := mdp.RegisterDocument(doc("b", "c", "a")); err != nil {
		t.Fatal(err)
	}
	fresh := node("lmr-fresh")

	res, ok, err := mdp.Engine().GetResource("dp.rdf#dp")
	if err != nil || !ok {
		t.Fatalf("MDP GetResource: %v %v", ok, err)
	}
	want := render(res)
	if want != "theme=a theme=b theme=c title=maps" {
		t.Fatalf("the MDP renders %s; the check below assumes its sorted order", want)
	}
	for _, n := range []*lmr.Node{longLived, fresh} {
		got, err := n.Query(rule)
		if err != nil {
			t.Fatal(err)
		}
		listed, err := n.Resources("DataProvider")
		if err != nil {
			t.Fatal(err)
		}
		for how, rs := range map[string][]*rdf.Resource{"Query": got, "Resources": listed} {
			if len(rs) != 1 {
				t.Fatalf("%s %s: %d resources, want 1", n.Name(), how, len(rs))
			}
			if g := render(rs[0]); g != want {
				t.Errorf("%s %s renders %s, the MDP %s", n.Name(), how, g, want)
			}
		}
	}
}

// render lists a resource's properties as name=value, in order.
func render(res *rdf.Resource) string {
	parts := make([]string, len(res.Props))
	for i, p := range res.Props {
		parts[i] = p.Name + "=" + p.Value.String()
	}
	return strings.Join(parts, " ")
}
