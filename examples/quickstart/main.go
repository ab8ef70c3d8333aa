// Quickstart: the smallest end-to-end MDV setup — one metadata provider,
// one local repository subscribing with a rule, one registered document,
// and a local query over the replicated cache.
package main

import (
	"fmt"
	"log"
	"strings"

	"mdv/mdv"
)

// The RDF document of the paper's Figure 1.
const figure1 = `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <CycleProvider rdf:ID="host">
    <serverHost>pirates.uni-passau.de</serverHost>
    <serverPort>5874</serverPort>
    <serverInformation>
      <ServerInformation rdf:ID="info">
        <memory>92</memory>
        <cpu>600</cpu>
      </ServerInformation>
    </serverInformation>
  </CycleProvider>
</rdf:RDF>`

func main() {
	// 1. Define the schema (classes and typed properties; the reference
	//    from CycleProvider to ServerInformation is strong, so referenced
	//    resources travel with their referrer).
	schema := mdv.NewSchema()
	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverHost", Type: mdv.TypeString})
	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverPort", Type: mdv.TypeInteger})
	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{
		Name: "serverInformation", Type: mdv.TypeResource,
		RefClass: "ServerInformation", RefKind: mdv.StrongRef})
	schema.MustAddProperty("ServerInformation", mdv.PropertyDef{Name: "memory", Type: mdv.TypeInteger})
	schema.MustAddProperty("ServerInformation", mdv.PropertyDef{Name: "cpu", Type: mdv.TypeInteger})

	// 2. Start a metadata provider (backbone node) and a local repository.
	provider, err := mdv.NewProvider("mdp-passau", schema)
	if err != nil {
		log.Fatal(err)
	}
	defer provider.Close()
	repo, err := mdv.NewRepositoryNode("lmr-lab", schema, provider)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Subscribe with the rule of the paper's Example 1: cycle providers
	//    in the uni-passau.de domain with more than 64 MB of memory.
	subID, err := repo.AddSubscription(`
		search CycleProvider c register c
		where c.serverHost contains 'uni-passau.de'
		  and c.serverInformation.memory > 64`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed (id %d)\n", subID)

	// 4. Register the Figure 1 document at the provider. The filter
	//    algorithm matches it against the subscription and pushes it (plus
	//    the strongly referenced ServerInformation) to the repository.
	doc, err := mdv.ParseDocument("doc.rdf", strings.NewReader(figure1))
	if err != nil {
		log.Fatal(err)
	}
	if err := provider.RegisterDocument(doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %s; repository now caches %d resources\n",
		doc.URI, repo.Repository().Len())

	// 5. Query locally — no round trip to the provider.
	results, err := repo.Query(`
		search CycleProvider c register c where c.serverInformation.cpu >= 500`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		host, _ := r.Get("serverHost")
		fmt.Printf("local query hit: %s (serverHost=%s)\n", r.URIRef, host.String())
	}

	// 6. Update the document: memory drops below the threshold, so the
	//    provider publishes a removal and the repository's garbage
	//    collector evicts the resource and its closure.
	updated := doc.Clone()
	info, _ := updated.Find("doc.rdf#info")
	info.Set("memory", mdv.Lit("32"))
	if err := provider.RegisterDocument(updated); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update: repository caches %d resources\n", repo.Repository().Len())
}
