package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// Snapshot compatibility: testdata/compat/engine-snapshot-v1 was written by
// the engine of commit 70fcaf3, which kept the FilterData scratch outside
// the engine database, so the snapshot has no FilterData table. It was made
// by running this file in that tree with
// `go test -run TestCompatSnapshotLoads -args -write-compat=<path>`.
// Loading it must give an engine indistinguishable from a fresh one fed the
// same operations.

var writeCompat = flag.String("write-compat", "",
	"write the snapshot of applyCompatOps to this path instead of checking the committed fixture")

const compatFixture = "../../testdata/compat/engine-snapshot-v1"

// compatDoc is one CycleProvider with its ServerInformation.
func compatDoc(i int, host, port, memory, cpu string) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("compat%d.rdf", i))
	cp := doc.NewResource("host", "CycleProvider")
	cp.Add("serverHost", rdf.Lit(host))
	cp.Add("serverPort", rdf.Lit(port))
	cp.Add("serverInformation", rdf.Ref(doc.URI+"#info"))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(memory))
	info.Add("cpu", rdf.Lit(cpu))
	return doc
}

// applyCompatOps is the fixture's history: a named rule, subscriptions
// covering ANY, EQ/NE, CON, numeric, PATH and JOIN rules, a batch of
// documents, an update and a delete. Changing it invalidates the fixture.
func applyCompatOps(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.RegisterNamedRule("Passau",
		`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ who, rule string }{
		{"lmr1", `search CycleProvider c register c`},
		{"lmr1", `search CycleProvider c register c where c.serverHost = 'pirates.uni-passau.de'`},
		{"lmr2", `search CycleProvider c register c where c.serverHost != 'nobody'`},
		{"lmr2", `search CycleProvider c register c where c.serverHost contains 'example'`},
		{"lmr1", `search ServerInformation s register s where s.memory > 64`},
		{"lmr3", `search CycleProvider c register c where c.serverPort = 5874 or c.serverPort < 100`},
		{"lmr3", `search CycleProvider c register c where c.serverInformation.cpu >= 500`},
		{"lmr2", `search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort > 1000`},
		{"lmr3", `search Passau p register p where p.serverPort >= 0`},
	} {
		if _, _, err := e.Subscribe(s.who, s.rule); err != nil {
			t.Fatalf("subscribe %q: %v", s.rule, err)
		}
	}
	if _, err := e.RegisterDocuments([]*rdf.Document{
		compatDoc(0, "pirates.uni-passau.de", "5874", "128", "600"),
		compatDoc(1, "a.example.org", "80", "32", "900"),
		compatDoc(2, "mdv.uni-passau.de", "7171", "256", "400"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(compatDoc(1, "b.example.org", "8080", "96", "300")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteDocument("compat2.rdf"); err != nil {
		t.Fatal(err)
	}
}

// TestCompatSnapshotLoads loads the committed fixture and requires the
// same filter state as a fresh engine fed applyCompatOps, and a probe
// registration whose publish set is byte-identical to the fresh engine's.
func TestCompatSnapshotLoads(t *testing.T) {
	if *writeCompat != "" {
		e := newTestEngine(t)
		applyCompatOps(t, e)
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*writeCompat, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %s; the load check runs without -write-compat", *writeCompat)
	}
	snap, err := os.ReadFile(compatFixture)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(snap), paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	fresh := newTestEngine(t)
	applyCompatOps(t, fresh)
	checkNoScratch(t, loaded)
	if dl, df := dumpFilterState(t, loaded), dumpFilterState(t, fresh); dl != df {
		t.Fatalf("loaded filter state differs from a fresh engine's:\n%s", diffDumps(df, dl))
	}

	probe := compatDoc(3, "probe.uni-passau.de", "5874", "512", "700")
	psFresh, err := fresh.RegisterDocument(probe)
	if err != nil {
		t.Fatal(err)
	}
	psLoaded, err := loaded.RegisterDocument(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderPublishSet(psFresh), renderPublishSet(psLoaded)
	if got != want {
		t.Errorf("loaded engine diverged on the probe publish:\n fresh:\n%s\n loaded:\n%s", want, got)
	}
	if want == "" {
		t.Error("the probe published nothing; the comparison proves nothing")
	}

	// The fixture's Documents table still holds each document's RDF/XML;
	// Load keeps only the URIs, and re-registering a fixture document
	// rebuilds its previous version from the statements.
	raw, err := rdb.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !legacyDocuments(raw) {
		t.Fatal("the fixture has no Documents.content column; the migration goes untested")
	}
	if legacyDocuments(loaded.DB().Raw()) {
		t.Error("Documents kept its content column after Load")
	}
	for _, uri := range []string{"compat0.rdf", "compat1.rdf"} {
		sf, err := fresh.StoredDocument(uri)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := loaded.StoredDocument(uri)
		if err != nil {
			t.Fatal(err)
		}
		if f, l := fingerprints(sf), fingerprints(sl); !slices.Equal(f, l) {
			t.Errorf("stored %s: fresh %q, loaded %q", uri, f, l)
		}
	}
	update := compatDoc(1, "c.example.org", "5874", "128", "300")
	psFresh, err = fresh.RegisterDocument(update)
	if err != nil {
		t.Fatal(err)
	}
	psLoaded, err = loaded.RegisterDocument(update)
	if err != nil {
		t.Fatal(err)
	}
	want, got = renderPublishSet(psFresh), renderPublishSet(psLoaded)
	if got != want {
		t.Errorf("loaded engine diverged on re-registering compat1.rdf:\n fresh:\n%s\n loaded:\n%s", want, got)
	}
	if want == "" {
		t.Error("the re-registration published nothing; the comparison proves nothing")
	}
	checkNoScratch(t, loaded)
}
