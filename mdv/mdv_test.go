package mdv_test

import (
	"strings"
	"testing"
	"time"

	"mdv/mdv"
)

const schemaXML = `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <Class rdf:ID="CycleProvider"/>
  <Class rdf:ID="ServerInformation"/>
  <Property rdf:ID="p1">
    <name>serverHost</name>
    <domain rdf:resource="#CycleProvider"/>
    <range rdf:resource="http://www.w3.org/2000/01/rdf-schema#Literal"/>
  </Property>
  <Property rdf:ID="p2">
    <name>serverInformation</name>
    <domain rdf:resource="#CycleProvider"/>
    <range rdf:resource="#ServerInformation"/>
    <referenceType>strong</referenceType>
  </Property>
  <Property rdf:ID="p3">
    <name>memory</name>
    <domain rdf:resource="#ServerInformation"/>
    <range rdf:resource="http://www.w3.org/2000/01/rdf-schema#Literal"/>
    <literalType>integer</literalType>
  </Property>
</rdf:RDF>`

const docXML = `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <CycleProvider rdf:ID="host">
    <serverHost>pirates.uni-passau.de</serverHost>
    <serverInformation>
      <ServerInformation rdf:ID="info"><memory>92</memory></ServerInformation>
    </serverInformation>
  </CycleProvider>
</rdf:RDF>`

// TestPublicAPIEndToEnd drives the whole system through the public facade
// only: schema from RDFS XML, provider, repository, subscription, document
// registration, local query, snapshot, restore.
func TestPublicAPIEndToEnd(t *testing.T) {
	schema, err := mdv.ParseSchema(strings.NewReader(schemaXML))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prov, err := mdv.OpenDurableProvider("mdp", schema, dir, mdv.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	node, err := mdv.NewRepositoryNode("lmr", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	doc, err := mdv.ParseDocumentString("doc.rdf", docXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}
	rs, err := node.Query(`search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].URIRef != "doc.rdf#host" {
		t.Fatalf("query = %v", rs)
	}

	// Snapshot the provider, close it and restore a fresh one from its
	// directory; a new repository subscribing there receives the same state.
	if err := prov.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}
	prov2, err := mdv.OpenDurableProvider("mdp2", schema, dir, mdv.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov2.Close() })
	node2, err := mdv.NewRepositoryNode("lmr2", schema, prov2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node2.AddSubscription(`search CycleProvider c register c`); err != nil {
		t.Fatal(err)
	}
	if !cached(t, node2.Repository(), "doc.rdf#host") {
		t.Error("restored provider lost metadata")
	}
}

// TestPublicAPIWire drives the networked path through the facade.
func TestPublicAPIWire(t *testing.T) {
	schema, err := mdv.ParseSchema(strings.NewReader(schemaXML))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := mdv.NewProvider("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	addr, err := prov.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := mdv.DialProvider(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	node, err := mdv.NewRepositoryNode("lmr", schema, conn)
	if err != nil {
		t.Fatal(err)
	}
	lmrAddr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if _, err := node.AddSubscription(`search CycleProvider c register c`); err != nil {
		t.Fatal(err)
	}
	admin, err := mdv.DialProvider(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	doc, _ := mdv.ParseDocumentString("doc.rdf", docXML)
	if err := admin.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}

	app, err := mdv.DialRepository(lmrAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs, err := app.Query(`search CycleProvider c register c`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resource never arrived: %v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cached reports whether a node's cache holds uri, failing the test when the
// lookup itself fails.
func cached(t *testing.T, repo interface {
	Get(string) (*mdv.Resource, bool, error)
}, uri string) bool {
	t.Helper()
	_, ok, err := repo.Get(uri)
	if err != nil {
		t.Fatalf("get %s: %v", uri, err)
	}
	return ok
}
