package rdf

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseDocument feeds arbitrary bytes to the RDF/XML parser, which reads
// every document registered over the wire and every register record a
// changelog replay applies. The
// parser must never panic, and a document it accepts must survive
// DocumentString: the re-serialized form parses back to the same resources,
// in the same order, with the same fingerprints.
func FuzzParseDocument(f *testing.F) {
	seeds, err := filepath.Glob("../../testdata/*.rdf")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(`<rdf:RDF xmlns:rdf="` + RDFNamespace + `"><C rdf:about="x"><p> a&amp;b </p><q rdf:resource="#y"/>` +
		`<r><D rdf:ID="y"><s>1</s></D></r></C></rdf:RDF>`)
	// Every character escapeAttr rewrites, in an rdf:about and an
	// rdf:resource value.
	f.Add(`<rdf:RDF xmlns:rdf="` + RDFNamespace + `"><C rdf:about="a&amp;&lt;&gt;&quot;b">` +
		`<q rdf:resource="c&amp;&lt;&gt;&quot;d"/></C></rdf:RDF>`)
	f.Fuzz(func(t *testing.T, src string) {
		const uri = "fuzz.rdf"
		doc, err := ParseDocumentString(uri, src)
		if err != nil {
			return
		}
		out := DocumentString(doc)
		back, err := ParseDocumentString(uri, out)
		if err != nil {
			t.Fatalf("re-serialized document does not parse: %v\n%s", err, out)
		}
		if len(back.Resources) != len(doc.Resources) {
			t.Fatalf("round trip has %d resources, want %d\n%s", len(back.Resources), len(doc.Resources), out)
		}
		for i, r := range doc.Resources {
			b := back.Resources[i]
			if b.URIRef != r.URIRef || b.Fingerprint() != r.Fingerprint() {
				t.Fatalf("resource %d round-trips as %q %q, want %q %q\n%s",
					i, b.URIRef, b.Fingerprint(), r.URIRef, r.Fingerprint(), out)
			}
		}
	})
}
