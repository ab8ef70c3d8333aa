package mdv_test

import (
	"fmt"

	"mdv/mdv"
)

// Example demonstrates the core publish & subscribe loop: subscribe with a
// rule, register a document, query the replicated cache locally.
func Example() {
	schema := mdv.NewSchema()
	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverHost", Type: mdv.TypeString})
	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverPort", Type: mdv.TypeInteger})

	provider, _ := mdv.NewProvider("mdp", schema)
	defer provider.Close()
	repo, _ := mdv.NewRepositoryNode("lmr", schema, provider)
	repo.AddSubscription(`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`)

	doc := mdv.NewDocument("doc.rdf")
	cp := doc.NewResource("host", "CycleProvider")
	cp.Add("serverHost", mdv.Lit("pirates.uni-passau.de"))
	cp.Add("serverPort", mdv.Lit("5874"))
	provider.RegisterDocument(doc)

	results, _ := repo.Query(`search CycleProvider c register c where c.serverPort = 5874`)
	for _, r := range results {
		host, _ := r.Get("serverHost")
		fmt.Println(r.URIRef, host.String())
	}
	// Output: doc.rdf#host pirates.uni-passau.de
}
