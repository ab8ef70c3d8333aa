package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mdv/internal/rdf"
)

// TestNoOpReRegistration: re-registering an identical document is silent —
// no filter matches, no notifications.
func TestNoOpReRegistration(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Errorf("no-op re-registration notified: %v", ps.Groups)
	}
	after := e.Stats()
	if after.TriggeringMatches != before.TriggeringMatches {
		t.Errorf("no-op re-registration ran triggering matches: %d -> %d",
			before.TriggeringMatches, after.TriggeringMatches)
	}
}

// TestMixedBatch: one batch containing a new document, an update, and a
// document that loses a resource — all three effects publish correctly.
func TestMixedBatch(t *testing.T) {
	e := newTestEngine(t)
	sub, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	_ = sub

	mkdoc := func(n int, memory string) *rdf.Document {
		doc := rdf.NewDocument(fmt.Sprintf("m%d.rdf", n))
		cp := doc.NewResource("cp", "CycleProvider")
		cp.Add("serverInformation", rdf.Ref(doc.QualifyID("si")))
		si := doc.NewResource("si", "ServerInformation")
		si.Add("memory", rdf.Lit(memory))
		return doc
	}
	// Seed: doc1 matches, doc2 matches.
	if _, err := e.RegisterDocuments([]*rdf.Document{mkdoc(1, "128"), mkdoc(2, "256")}); err != nil {
		t.Fatal(err)
	}

	// Mixed batch: doc3 new (matches), doc1 updated below the threshold
	// (stops matching), doc2 re-registered without its resources (deletes).
	empty2 := rdf.NewDocument("m2.rdf")
	ps, err := e.RegisterDocuments([]*rdf.Document{mkdoc(3, "512"), mkdoc(1, "16"), empty2})
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil {
		t.Fatal("no changeset")
	}
	if len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "m3.rdf#cp" {
		t.Errorf("upserts = %v", upsertURIs(cs))
	}
	var removed []string
	for _, r := range cs.Removals {
		removed = append(removed, r.URIRef)
	}
	// doc1's cp stops matching (update); doc2's cp is deleted (also a
	// removal candidate, plus forced deletes for both its resources).
	wantRemovals := map[string]bool{"m1.rdf#cp": true, "m2.rdf#cp": true}
	for _, uri := range removed {
		delete(wantRemovals, uri)
	}
	if len(wantRemovals) != 0 {
		t.Errorf("missing removals: %v (got %v)", wantRemovals, removed)
	}
	wantDeletes := map[string]bool{"m2.rdf#cp": true, "m2.rdf#si": true}
	for _, uri := range cs.ForcedDeletes {
		delete(wantDeletes, uri)
	}
	if len(wantDeletes) != 0 {
		t.Errorf("missing forced deletes: %v (got %v)", wantDeletes, cs.ForcedDeletes)
	}

	// End state is consistent.
	if e.ResourceCount() != 4 { // m1 (2 resources) + m3 (2 resources)
		t.Errorf("resources = %d", e.ResourceCount())
	}
}

// TestClassChangeOnUpdate: a resource whose class changes is handled as a
// content update — old-class rules lose it, new-class rules gain it.
func TestClassChangeOnUpdate(t *testing.T) {
	e := newTestEngine(t)
	cpSub, _, err := e.Subscribe("lmr1", `search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	dpSub, _, err := e.Subscribe("lmr1", `search DataProvider d register d`)
	if err != nil {
		t.Fatal(err)
	}
	doc := rdf.NewDocument("cc.rdf")
	doc.NewResource("x", "CycleProvider")
	if _, err := e.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}
	// Same URI reference, different class.
	doc2 := rdf.NewDocument("cc.rdf")
	doc2.NewResource("x", "DataProvider")
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil {
		t.Fatal("no changeset")
	}
	var gotRemoval, gotUpsert bool
	for _, r := range cs.Removals {
		if r.URIRef == "cc.rdf#x" && r.SubID == cpSub {
			gotRemoval = true
		}
	}
	for _, up := range cs.Upserts {
		if up.Resource.URIRef == "cc.rdf#x" {
			for _, id := range up.SubIDs {
				if id == dpSub {
					gotUpsert = true
				}
			}
		}
	}
	if !gotRemoval {
		t.Error("old-class subscription kept the resource")
	}
	if !gotUpsert {
		t.Error("new-class subscription missed the resource")
	}
}

// TestEmptyBatch: registering an empty batch is a no-op, not an error.
func TestEmptyBatch(t *testing.T) {
	e := newTestEngine(t)
	ps, err := e.RegisterDocuments(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Error("empty batch notified")
	}
}

// TestSubscribeRejectsInvalidRuleCleanly: a rule failing mid-decomposition
// leaves no partial state behind.
func TestSubscribeRejectsInvalidRuleCleanly(t *testing.T) {
	e := newTestEngine(t)
	base := e.AtomicRuleCount()
	for _, bad := range []string{
		`garbage`,
		`search Unknown u register u`,
		`search CycleProvider c register c where c.nope = 1`,
	} {
		if _, _, err := e.Subscribe("lmr1", bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if got := e.AtomicRuleCount(); got != base {
		t.Errorf("failed subscriptions leaked %d atomic rules", got-base)
	}
	subs, _ := e.Subscriptions()
	if len(subs) != 0 {
		t.Errorf("failed subscriptions persisted: %v", subs)
	}
	// A valid rule still works afterwards.
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Errorf("engine unusable after failures: %v", err)
	}
}

// TestDeleteDocumentIsAtomic races DeleteDocument against re-registrations
// of the same URI. Whichever order they take, the document is either fully
// there or fully gone: a Documents row exactly when there are Resources
// rows. A delete that released the lock between its empty re-registration
// and its row delete let a registration slip in between, leaving Resources
// without a Documents row — after which the URI could never be registered
// again. Several registrants and at least four Ps keep somebody spinning on
// the engine lock when the delete lets go of it.
func TestDeleteDocumentIsAtomic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const registrants = 8
	e := newTestEngine(t)
	for i := 0; i < 1000; i++ {
		if _, err := e.RegisterDocument(figure1Doc()); err != nil {
			t.Fatalf("iteration %d: register: %v", i, err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 1+registrants)
		wg.Add(len(errs))
		go func() {
			defer wg.Done()
			<-start
			_, errs[0] = e.DeleteDocument("doc.rdf")
		}()
		for k := 1; k <= registrants; k++ {
			go func() {
				defer wg.Done()
				<-start
				_, errs[k] = e.RegisterDocument(figure1Doc())
			}()
		}
		close(start)
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("iteration %d: goroutine %d (0 deletes, the rest register): %v", i, k, err)
			}
		}
		docs, resources := e.count("Documents"), e.ResourceCount()
		if (docs == 0) != (resources == 0) {
			t.Fatalf("iteration %d: Documents=%d Resources=%d: delete and re-registration interleaved",
				i, docs, resources)
		}
		if _, err := e.RegisterDocument(figure1Doc()); err != nil {
			t.Fatalf("iteration %d: re-registration after the race: %v", i, err)
		}
	}
}
