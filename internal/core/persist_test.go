package core

import (
	"bytes"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// TestEngineSnapshotRoundTrip: a saved engine restores with its metadata,
// rules, materializations, subscriptions, and named rules intact, and
// continues to filter correctly. The snapshot carries the FilterData
// scratch table empty, and a loaded engine re-saves it byte-identically.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterNamedRule("Passau",
		`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`); err != nil {
		t.Fatal(err)
	}
	subID, _, err := e.Subscribe("lmr1", example331)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	restored, err := Load(bytes.NewReader(snap), paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !e.DB().Raw().HasTable("FilterData") || !restored.DB().Raw().HasTable("FilterData") {
		t.Error("the engine database has no FilterData table; triggering runs on the engine's own tables")
	}
	checkNoScratch(t, restored)
	var again bytes.Buffer
	if err := restored.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatal("snapshot re-saved by the loaded engine differs from the one it loaded")
	}

	// State survived.
	if restored.AtomicRuleCount() != e.AtomicRuleCount() {
		t.Errorf("atomic rules: %d vs %d", restored.AtomicRuleCount(), e.AtomicRuleCount())
	}
	if restored.ResourceCount() != 2 {
		t.Errorf("resources = %d", restored.ResourceCount())
	}
	ends, err := restored.EndRulesOf(subID)
	if err != nil || len(ends) != 1 {
		t.Fatalf("end rules after restore: %v %v", ends, err)
	}
	uris, _ := restored.RuleResultsOf(ends[0])
	if len(uris) != 1 || uris[0] != "doc.rdf#host" {
		t.Errorf("materialization after restore: %v", uris)
	}
	if got := restored.NamedRules(); len(got) != 1 || got[0] != "Passau" {
		t.Errorf("named rules after restore: %v", got)
	}

	// The restored engine keeps filtering: a new document and a new
	// subscription work, and fresh ids do not collide with restored ones.
	doc2 := rdf.NewDocument("doc2.rdf")
	cp := doc2.NewResource("host", "CycleProvider")
	cp.Add("serverHost", rdf.Lit("x.uni-passau.de"))
	cp.Add("serverInformation", rdf.Ref("doc2.rdf#info"))
	info := doc2.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit("128"))
	info.Add("cpu", rdf.Lit("900"))
	ps, err := restored.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc2.rdf#host" {
		t.Fatalf("restored engine does not filter: %+v", cs)
	}
	// The deprecated triggering counters keep their meaning: every run
	// counts, and every run here loaded atoms.
	if st := restored.Stats(); st.ShardedFilterRuns != st.FilterRuns || st.ShardSectionsRun != st.FilterRuns || st.FilterRuns == 0 {
		t.Errorf("deprecated counters: %d triggering runs and %d with atoms over %d filter runs; want all equal",
			st.ShardedFilterRuns, st.ShardSectionsRun, st.FilterRuns)
	}
	sub2, _, err := restored.Subscribe("lmr2", `search Passau p register p where p.serverPort >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if sub2 <= subID {
		t.Errorf("subscription id collision after restore: %d <= %d", sub2, subID)
	}

	// Updates still run the three-phase machinery correctly.
	doc2b := doc2.Clone()
	info2, _ := doc2b.Find("doc2.rdf#info")
	info2.Set("memory", rdf.Lit("8"))
	ps, err = restored.RegisterDocument(doc2b)
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr1"); cs == nil || len(cs.Removals) != 1 {
		t.Errorf("restored engine update handling: %+v", cs)
	}
	// Re-pointing the host's reference moves no triggering match; only the
	// join-property map, rebuilt on load, reaches the join it feeds.
	doc2c := doc2b.Clone()
	host2, _ := doc2c.Find("doc2.rdf#host")
	host2.Set("serverInformation", rdf.Ref("doc.rdf#info"))
	if ps, err = restored.RegisterDocument(doc2c); err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "lmr1"); cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc2.rdf#host" {
		t.Errorf("restored engine missed the re-pointed reference: %+v", cs)
	} else if ids := cs.Upserts[0].SubIDs; len(ids) != 1 || ids[0] != subID {
		t.Errorf("re-pointed host credited to %v, want [%d]", ids, subID)
	}
}

// TestLoadRejectsNonEngineSnapshot: a plain database snapshot without the
// engine tables is rejected.
func TestLoadRejectsNonEngineSnapshot(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage"), paperSchema()); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSaveIsDeterministic: engines fed the same history save the same
// bytes, in one process as across processes. Every table write whose order
// would follow Go map iteration — the cleanup of a retraction's matches,
// the named-rule catalog — runs in sorted order.
func TestSaveIsDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 10; i++ {
		e := newTestEngine(t)
		applyCompatOps(t, e)
		if err := e.RegisterNamedRule("Example",
			`search CycleProvider c register c where c.serverHost contains 'example'`); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("engine %d saved a snapshot different from engine 0's for the same history", i)
		}
	}
}

// TestFailedSubscribeLeavesNoEndRules: an OR rule whose later branch fails
// to decompose leaves no SubscriptionEndRules row behind. Such a row would
// survive a reload, and the restored id counters would hand its
// subscription and rule ids out again, crediting another subscription.
func TestFailedSubscribeLeavesNoEndRules(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("bad",
		`search CycleProvider c register c where c.serverInformation.memory > 64 or 'uni' contains c.serverHost`); err == nil {
		t.Fatal("the OR rule with an undecomposable branch subscribed")
	}
	if n := e.count("SubscriptionEndRules"); n != 0 {
		t.Fatalf("the failed subscribe left %d SubscriptionEndRules rows", n)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Subscribe("good", `search CycleProvider c register c where c.serverPort = 1`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Subscribe("other", `search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	ps, err := loaded.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	if cs := changesetOf(ps, "good"); cs != nil {
		t.Errorf("the subscriber of serverPort = 1 received %v, credited by the failed rule's row", upsertURIs(cs))
	}
}
