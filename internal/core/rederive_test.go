package core

import (
	"slices"
	"testing"

	"mdv/internal/rdf"
)

// TestJoinMatchKeepsOtherSupport covers §3.5's second execution: a join
// match that phase 1 retracts because one of its supports changed must come
// back when another support still holds, and no Removal may be published
// for it.
func TestJoinMatchKeepsOtherSupport(t *testing.T) {
	hostDoc := func(uri string, port string, infos ...string) *rdf.Document {
		doc := rdf.NewDocument(uri)
		c := doc.NewResource("c", "CycleProvider")
		c.Add("serverPort", rdf.Lit(port))
		for _, info := range infos {
			c.Add("serverInformation", rdf.Ref(info))
		}
		return doc
	}
	infoDoc := func(uri string, memory map[string]string) *rdf.Document {
		doc := rdf.NewDocument(uri)
		for _, id := range []string{"s1", "s2", "info"} {
			if m, ok := memory[id]; ok {
				doc.NewResource(id, "ServerInformation").Add("memory", rdf.Lit(m))
			}
		}
		return doc
	}
	// check asserts the subscription's materialized matches and that the
	// publish set carries exactly the wanted removals for it.
	check := func(t *testing.T, e *Engine, ps *PublishSet, sub int64, want, removed []string) {
		t.Helper()
		got, err := e.MatchingResources(sub)
		if err != nil {
			t.Fatal(err)
		}
		var uris []string
		for _, r := range got {
			uris = append(uris, r.URIRef)
		}
		if !slices.Equal(uris, want) {
			t.Errorf("matches = %v, want %v", uris, want)
		}
		var gotRemoved []string
		if cs := changesetOf(ps, "lmr"); cs != nil {
			for _, r := range cs.Removals {
				if r.SubID == sub {
					gotRemoved = append(gotRemoved, r.URIRef)
				}
			}
		}
		if !slices.Equal(gotRemoved, removed) {
			t.Errorf("removals = %v, want %v", gotRemoved, removed)
		}
	}

	t.Run("shared ServerInformation", func(t *testing.T) {
		e := newTestEngine(t)
		sub, _, err := e.Subscribe("lmr",
			`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort = 5`)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := e.RegisterDocuments([]*rdf.Document{
			infoDoc("i.rdf", map[string]string{"info": "128"}),
			hostDoc("c1.rdf", "5", "i.rdf#info"),
			hostDoc("c2.rdf", "5", "i.rdf#info"),
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, []string{"i.rdf#info"}, nil)
		// c1 stops supporting the match; c2 still does.
		if ps, err = e.RegisterDocument(hostDoc("c1.rdf", "6", "i.rdf#info")); err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, []string{"i.rdf#info"}, nil)
		// Now the last support goes.
		if ps, err = e.RegisterDocument(hostDoc("c2.rdf", "6", "i.rdf#info")); err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, nil, []string{"i.rdf#info"})
	})

	t.Run("set-valued references", func(t *testing.T) {
		schema := paperSchema()
		schema.MustAddProperty("Cluster", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
		schema.MustAddProperty("Cluster", rdf.PropertyDef{Name: "serverInformation", Type: rdf.TypeResource,
			RefClass: "ServerInformation", RefKind: rdf.StrongRef, SetValued: true})
		e, err := NewEngine(schema)
		if err != nil {
			t.Fatal(err)
		}
		sub, _, err := e.Subscribe("lmr", `search Cluster c register c where c.serverInformation.memory > 64`)
		if err != nil {
			t.Fatal(err)
		}
		cluster := func(port string) *rdf.Document {
			doc := hostDoc("c.rdf", port, "i.rdf#s1", "i.rdf#s2")
			doc.Resources[0].Class = "Cluster"
			return doc
		}
		ps, err := e.RegisterDocuments([]*rdf.Document{
			infoDoc("i.rdf", map[string]string{"s1": "128", "s2": "256"}), cluster("1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, []string{"c.rdf#c"}, nil)
		// s1 stops matching; the cluster still matches through s2.
		if ps, err = e.RegisterDocument(infoDoc("i.rdf", map[string]string{"s1": "32", "s2": "256"})); err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, []string{"c.rdf#c"}, nil)
		// s2 stops matching too.
		if ps, err = e.RegisterDocument(infoDoc("i.rdf", map[string]string{"s1": "32", "s2": "16"})); err != nil {
			t.Fatal(err)
		}
		check(t, e, ps, sub, nil, []string{"c.rdf#c"})
	})
}
