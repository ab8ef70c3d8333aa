package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// reregDoc draws a document: a CycleProvider with its ServerInformation
// and, sometimes, a DataProvider with a set-valued theme.
func reregDoc(rng *rand.Rand, i int) *rdf.Document {
	doc := endRuleDoc(rng, i)
	if rng.Intn(2) == 0 {
		addDataProvider(rng, doc, "data")
	}
	return doc
}

func addDataProvider(rng *rand.Rand, doc *rdf.Document, id string) {
	dp := doc.NewResource(id, "DataProvider")
	for n := 1 + rng.Intn(3); n > 0; n-- {
		dp.Add("theme", rdf.Lit(genThemes[rng.Intn(len(genThemes))]))
	}
	dp.Add("host", rdf.Ref(doc.URI+"#host"))
}

// reregMutate returns a new version of doc and whether its content
// differs: properties reordered, set values permuted, a value changed, a
// resource added or removed, or nothing at all.
func reregMutate(rng *rand.Rand, doc *rdf.Document) (*rdf.Document, bool) {
	nd := doc.Clone()
	switch rng.Intn(6) {
	case 0: // nothing
		return nd, false
	case 1: // every resource's properties reordered
		for _, r := range nd.Resources {
			rng.Shuffle(len(r.Props), func(i, j int) { r.Props[i], r.Props[j] = r.Props[j], r.Props[i] })
		}
		slices.Reverse(nd.Resources)
		return nd, false
	case 2: // set values permuted, and one more value
		for _, r := range nd.Resources {
			if r.Class == "DataProvider" {
				slices.Reverse(r.Props)
				r.Add("theme", rdf.Lit(genThemes[rng.Intn(len(genThemes))]))
				return nd, true
			}
		}
		fallthrough
	case 3: // a value changed
		r := nd.Resources[0]
		r.Set("serverPort", rdf.Lit(fmt.Sprint(rng.Intn(6000))))
		return nd, true
	case 4: // a resource added
		addDataProvider(rng, nd, fmt.Sprintf("extra%d", rng.Intn(1000)))
		return nd, true
	default: // a resource removed
		if len(nd.Resources) < 3 {
			addDataProvider(rng, nd, "data")
		} else {
			nd.Resources = nd.Resources[:len(nd.Resources)-1]
		}
		return nd, true
	}
}

// fingerprints lists a document's resources as URI and fingerprint, by URI.
func fingerprints(doc *rdf.Document) []string {
	out := make([]string, len(doc.Resources))
	for i, r := range doc.Resources {
		out[i] = r.URIRef + " " + r.Fingerprint()
	}
	slices.Sort(out)
	return out
}

// TestReregisterDiffFromStatements: the previous version of a document
// rebuilt from its statements diffs like the parsed RDF/XML earlier engines
// stored. A reference engine rebuilds it by parsing each document's last
// registered XML; both engines get the same subscriptions and
// registrations and must publish the same sets, StoredDocument must equal
// the parsed XML resource for resource, and a re-registration without a
// change in content publishes nothing.
func TestReregisterDiffFromStatements(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t)
		ref := newTestEngine(t)
		stored := map[string]string{}
		ref.storedVersion = func(uri string) (*rdf.Document, error) {
			return rdf.ParseDocumentString(uri, stored[uri])
		}
		for i := 0; i < 12; i++ {
			rule := genRule(rng)
			who := fmt.Sprintf("lmr%d", i%3)
			if _, _, err := e.Subscribe(who, rule); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ref.Subscribe(who, rule); err != nil {
				t.Fatal(err)
			}
		}
		current := map[string]*rdf.Document{}
		for step := 0; step < 80; step++ {
			i := rng.Intn(6)
			doc, changed := reregDoc(rng, i), true
			if prev, ok := current[fmt.Sprintf("doc%d.rdf", i)]; ok {
				doc, changed = reregMutate(rng, prev)
			}
			ps, err := e.RegisterDocument(doc)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := ref.RegisterDocument(doc)
			if err != nil {
				t.Fatalf("seed %d step %d: reference: %v", seed, step, err)
			}
			stored[doc.URI] = rdf.DocumentString(doc)
			current[doc.URI] = doc
			if g, w := renderPublishSet(ps), renderPublishSet(want); g != w {
				t.Fatalf("seed %d step %d: publish set\n got:\n%s\nwant:\n%s", seed, step, g, w)
			}
			if !changed && len(ps.Groups) != 0 {
				t.Fatalf("seed %d step %d: a re-registration without a change published\n%s",
					seed, step, renderPublishSet(ps))
			}
			got, err := e.StoredDocument(doc.URI)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := rdf.ParseDocumentString(doc.URI, stored[doc.URI])
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fingerprints(got), fingerprints(parsed); !slices.Equal(g, w) {
				t.Fatalf("seed %d step %d: StoredDocument\n got %q\nwant %q", seed, step, g, w)
			}
			if !slices.IsSortedFunc(got.Resources, func(a, b *rdf.Resource) int {
				return strings.Compare(a.URIRef, b.URIRef)
			}) {
				t.Fatalf("seed %d step %d: StoredDocument resources not sorted by URI", seed, step)
			}
		}
	}
}
