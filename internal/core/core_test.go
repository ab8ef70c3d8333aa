package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"mdv/internal/rdf"
)

// paperSchema is the schema implied by the paper's running example.
func paperSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "synthValue", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{
		Name: "serverInformation", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "cpu", Type: rdf.TypeInteger})
	s.MustAddProperty("DataProvider", rdf.PropertyDef{Name: "theme", Type: rdf.TypeString, SetValued: true})
	s.MustAddProperty("DataProvider", rdf.PropertyDef{
		Name: "host", Type: rdf.TypeResource, RefClass: "CycleProvider", RefKind: rdf.WeakRef})
	return s
}

// changesetOf returns the changeset ps delivers to subscriber: that of the
// one group it is a member of, nil when the batch does not notify it.
func changesetOf(ps *PublishSet, subscriber string) *Changeset {
	for _, g := range ps.Groups {
		if slices.Contains(g.Members, subscriber) {
			return g.Changeset
		}
	}
	return nil
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// figure1Doc builds the paper's Figure 1 document.
func figure1Doc() *rdf.Document {
	doc := rdf.NewDocument("doc.rdf")
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit("pirates.uni-passau.de"))
	host.Add("serverPort", rdf.Lit("5874"))
	host.Add("serverInformation", rdf.Ref("doc.rdf#info"))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit("92"))
	info.Add("cpu", rdf.Lit("600"))
	return doc
}

// example331 is the extended rule of paper §3.3.1 (the Example 1 rule plus
// the cpu predicate), which decomposes into RuleA..RuleF of Figure 7.
const example331 = `search CycleProvider c register c
	where c.serverHost contains 'uni-passau.de'
	and c.serverInformation.memory > 64 and c.serverInformation.cpu > 500`

func upsertURIs(cs *Changeset) []string {
	var out []string
	for _, u := range cs.Upserts {
		out = append(out, u.Resource.URIRef)
	}
	return out
}

// TestDecompositionFigure7 reproduces §3.3.1/Figure 7: the example rule
// decomposes into exactly five atomic rules — three triggering rules
// (memory > 64, cpu > 500, serverHost contains) and two join rules — and
// the filter tables of Figure 8 are populated accordingly.
func TestDecompositionFigure7(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != 5 {
		t.Errorf("atomic rules = %d, want 5 (RuleA, RuleB, RuleC, RuleE, RuleF)", got)
	}
	// Figure 8: FilterRulesGT holds the two numeric triggering rules.
	gt, err := e.db.Query(`SELECT class, property, value FROM FilterRulesGT ORDER BY property`)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 2 {
		t.Fatalf("FilterRulesGT has %d rows, want 2", gt.Len())
	}
	if gt.Data[0][0].Str != "ServerInformation" || gt.Data[0][1].Str != "cpu" || gt.Data[0][2].Str != "500" {
		t.Errorf("FilterRulesGT row 0 = %v", gt.Data[0])
	}
	if gt.Data[1][1].Str != "memory" || gt.Data[1][2].Str != "64" {
		t.Errorf("FilterRulesGT row 1 = %v", gt.Data[1])
	}
	// Figure 8: FilterRulesCON holds the contains triggering rule.
	con, err := e.db.Query(`SELECT class, property, value FROM FilterRulesCON`)
	if err != nil {
		t.Fatal(err)
	}
	if con.Len() != 1 || con.Data[0][0].Str != "CycleProvider" ||
		con.Data[0][1].Str != "serverHost" || con.Data[0][2].Str != "uni-passau.de" {
		t.Errorf("FilterRulesCON = %v", con.Data)
	}
	// Dependency graph: two join rules, each with two incoming edges (its
	// left and right inputs in JoinRules).
	deps, err := e.db.Query(`SELECT rule_id, left_rule, right_rule FROM JoinRules`)
	if err != nil {
		t.Fatal(err)
	}
	edges := map[[2]int64]bool{}
	for _, r := range deps.Data {
		edges[[2]int64{r[1].Int, r[0].Int}] = true
		edges[[2]int64{r[2].Int, r[0].Int}] = true
	}
	if len(edges) != 4 {
		t.Errorf("dependency edges = %d, want 4", len(edges))
	}
}

// TestFilterRunFigure9 reproduces the filter execution of Figure 9: after
// registering the Figure 1 document against the §3.3.1 rule, the filter
// terminates with resource doc.rdf#host as the (only) end-rule result.
func TestFilterRunFigure9(t *testing.T) {
	e := newTestEngine(t)
	subID, initial, err := e.Subscribe("lmr1", example331)
	if err != nil {
		t.Fatal(err)
	}
	if len(initial.Upserts) != 0 {
		t.Errorf("initial changeset should be empty, got %v", upsertURIs(initial))
	}
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatalf("groups = %+v", ps.Groups)
	}
	up := cs.Upserts[0]
	if up.Resource.URIRef != "doc.rdf#host" {
		t.Errorf("matched %s, want doc.rdf#host", up.Resource.URIRef)
	}
	if len(up.SubIDs) != 1 || up.SubIDs[0] != subID {
		t.Errorf("SubIDs = %v", up.SubIDs)
	}
	// The strong reference transmits the ServerInformation resource too
	// (§2.4).
	if len(up.Closure) != 1 || up.Closure[0].URIRef != "doc.rdf#info" {
		t.Errorf("closure = %+v", up.Closure)
	}
	// Materialized end-rule results contain exactly doc.rdf#host.
	ends, _ := e.EndRulesOf(subID)
	if len(ends) != 1 {
		t.Fatalf("end rules = %v", ends)
	}
	uris, _ := e.RuleResultsOf(ends[0])
	if len(uris) != 1 || uris[0] != "doc.rdf#host" {
		t.Errorf("end rule results = %v", uris)
	}
}

// TestFilterNonMatchingDocument checks that a document failing a predicate
// produces no notification.
func TestFilterNonMatchingDocument(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Fatal(err)
	}
	doc := figure1Doc()
	info, _ := doc.Find("doc.rdf#info")
	info.Set("memory", rdf.Lit("32")) // fails memory > 64
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Errorf("unexpected notifications: %v", ps.Groups)
	}
}

// TestRuleGroupsFigure6 reproduces §3.3.3: two rules whose join parts have
// equal shape share one rule group (and the shared ANY triggering rule).
func TestRuleGroupsFigure6(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	// RuleA (any CycleProvider), RuleB1 (memory), RuleC1 (join): 3 rules,
	// 1 group.
	if got := e.AtomicRuleCount(); got != 3 {
		t.Fatalf("atomic rules after first subscribe = %d, want 3", got)
	}
	if got := e.RuleGroupCount(); got != 1 {
		t.Fatalf("groups after first subscribe = %d, want 1", got)
	}
	if _, _, err := e.Subscribe("lmr2",
		`search CycleProvider c register c where c.serverInformation.cpu > 500`); err != nil {
		t.Fatal(err)
	}
	// RuleA shared; RuleB2 and RuleC2 new; C1 and C2 share the group.
	if got := e.AtomicRuleCount(); got != 5 {
		t.Errorf("atomic rules after second subscribe = %d, want 5", got)
	}
	if got := e.RuleGroupCount(); got != 1 {
		t.Errorf("groups after second subscribe = %d, want 1 (C1 and C2 grouped)", got)
	}
	st := e.Stats()
	if st.AtomicRulesShared == 0 {
		t.Error("no sharing recorded for RuleA")
	}

	// Both subscriptions match the Figure 1 document.
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	for _, lmr := range []string{"lmr1", "lmr2"} {
		cs := changesetOf(ps, lmr)
		if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc.rdf#host" {
			t.Errorf("%s: changeset %+v", lmr, cs)
		}
	}
}

// TestIdenticalRuleSharedCompletely: registering the same rule twice adds
// no atomic rules at all (§3.3.2: equivalent rules evaluate once).
func TestIdenticalRuleSharedCompletely(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Fatal(err)
	}
	n := e.AtomicRuleCount()
	if _, _, err := e.Subscribe("lmr2", example331); err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != n {
		t.Errorf("atomic rules grew from %d to %d on duplicate rule", n, got)
	}
}

// TestOIDRule exercises the benchmark's OID rule type: registering a single
// resource by URI reference (a pure triggering rule, no decomposition).
func TestOIDRule(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c = 'doc.rdf#host'`); err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != 1 {
		t.Errorf("OID rule created %d atomic rules, want 1", got)
	}
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc.rdf#host" {
		t.Fatalf("OID match failed: %+v", cs)
	}
	st := e.Stats()
	if st.FilterIterations != 0 {
		t.Errorf("OID filter ran %d join iterations, want 0", st.FilterIterations)
	}
}

// TestIncrementalCrossDocumentJoin: the join fires when the second half of
// a join pair arrives in a later batch (materialized results of §3.4).
func TestIncrementalCrossDocumentJoin(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	// First document: only the ServerInformation half.
	d1 := rdf.NewDocument("info.rdf")
	info := d1.NewResource("i", "ServerInformation")
	info.Add("memory", rdf.Lit("128"))
	ps, err := e.RegisterDocument(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Fatalf("half a join matched: %v", ps.Groups)
	}
	// Second document: the CycleProvider referencing it across documents.
	d2 := rdf.NewDocument("cp.rdf")
	cp := d2.NewResource("c", "CycleProvider")
	cp.Add("serverHost", rdf.Lit("x.example.org"))
	cp.Add("serverInformation", rdf.Ref("info.rdf#i"))
	ps, err = e.RegisterDocument(d2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "cp.rdf#c" {
		t.Fatalf("cross-document join failed: %+v", cs)
	}
	// And the reverse arrival order.
	if _, _, err := e.Subscribe("lmr2",
		`search CycleProvider c register c where c.serverInformation.cpu > 100`); err != nil {
		t.Fatal(err)
	}
	d3 := rdf.NewDocument("cp2.rdf")
	cp2 := d3.NewResource("c", "CycleProvider")
	cp2.Add("serverInformation", rdf.Ref("info2.rdf#i"))
	if _, err := e.RegisterDocument(d3); err != nil {
		t.Fatal(err)
	}
	d4 := rdf.NewDocument("info2.rdf")
	info2 := d4.NewResource("i", "ServerInformation")
	info2.Add("cpu", rdf.Lit("200"))
	ps, err = e.RegisterDocument(d4)
	if err != nil {
		t.Fatal(err)
	}
	cs = changesetOf(ps, "lmr2")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "cp2.rdf#c" {
		t.Fatalf("reverse-order join failed: %+v", cs)
	}
}

// TestSubscribeAfterRegistration: subscribing later returns the initial
// cache content (the LMR's initial replication, §2.2).
func TestSubscribeAfterRegistration(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	_, initial, err := e.Subscribe("lmr1", example331)
	if err != nil {
		t.Fatal(err)
	}
	if len(initial.Upserts) != 1 || initial.Upserts[0].Resource.URIRef != "doc.rdf#host" {
		t.Fatalf("initial fill = %v", upsertURIs(initial))
	}
	if len(initial.Upserts[0].Closure) != 1 {
		t.Errorf("initial fill misses closure: %+v", initial.Upserts[0])
	}
}

// TestUpdateStartsMatching covers §3.5: "The resource is matched by a rule
// it previously was not."
func TestUpdateStartsMatching(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	doc := figure1Doc()
	info, _ := doc.Find("doc.rdf#info")
	info.Set("memory", rdf.Lit("32"))
	if _, err := e.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}
	// Update: memory 32 -> 128 (the paper's example update).
	doc2 := figure1Doc()
	info2, _ := doc2.Find("doc.rdf#info")
	info2.Set("memory", rdf.Lit("128"))
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc.rdf#host" {
		t.Fatalf("update did not trigger match: %+v", cs)
	}
	if len(cs.Removals) != 0 {
		t.Errorf("unexpected removals: %v", cs.Removals)
	}
}

// TestUpdateStopsMatching covers §3.5: "The resource is no longer matched
// by a rule it previously was" — a true candidate.
func TestUpdateStopsMatching(t *testing.T) {
	e := newTestEngine(t)
	subID, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	// memory 92 -> 32: host stops matching.
	doc2 := figure1Doc()
	info2, _ := doc2.Find("doc.rdf#info")
	info2.Set("memory", rdf.Lit("32"))
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Removals) != 1 {
		t.Fatalf("no removal published: %+v", cs)
	}
	if cs.Removals[0].URIRef != "doc.rdf#host" || cs.Removals[0].SubID != subID {
		t.Errorf("removal = %+v", cs.Removals[0])
	}
}

// TestUpdateWrongCandidate covers §3.5's "wrong candidates": a resource
// that stops matching one rule but still matches another stays cached for
// the still-matching subscription, and the lapsed subscription gets its
// removal.
func TestUpdateWrongCandidate(t *testing.T) {
	e := newTestEngine(t)
	memID, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	cpuID, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.cpu > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	// memory 92 -> 32 (stops matching memID); cpu unchanged (keeps cpuID).
	doc2 := figure1Doc()
	info2, _ := doc2.Find("doc.rdf#info")
	info2.Set("memory", rdf.Lit("32"))
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil {
		t.Fatal("no changeset")
	}
	var sawMemRemoval, sawCpuRemoval bool
	for _, r := range cs.Removals {
		if r.SubID == memID {
			sawMemRemoval = true
		}
		if r.SubID == cpuID {
			sawCpuRemoval = true
		}
	}
	if !sawMemRemoval {
		t.Error("lapsed memory subscription got no removal")
	}
	if sawCpuRemoval {
		t.Error("still-matching cpu subscription wrongly got a removal")
	}
	// The cpu subscription keeps the host, whose content did not change, and
	// caches the updated ServerInformation through the host's strong
	// reference: it must receive the new version (§3.5 case three), here as
	// a closure upsert.
	found := false
	for _, res := range cs.ClosureUpserts {
		if v, _ := res.Get("memory"); res.URIRef == "doc.rdf#info" && v.String() == "32" {
			found = true
		}
	}
	if !found {
		t.Errorf("cpu subscription did not receive the refreshed resource: %+v", cs)
	}
}

// TestUpdateStillMatchingRefresh covers §3.5: "The resource still matches
// all rules it previously had. All LMRs that cache this resource must
// update their cache."
func TestUpdateStillMatchingRefresh(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	// memory 92 -> 100: still matches, content changed.
	doc2 := figure1Doc()
	info2, _ := doc2.Find("doc.rdf#info")
	info2.Set("memory", rdf.Lit("100"))
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatalf("refresh not published: %+v", cs)
	}
	if len(cs.Removals) != 0 {
		t.Errorf("spurious removals: %v", cs.Removals)
	}
	// The refreshed closure carries the new memory value.
	if v, _ := cs.Upserts[0].Closure[0].Get("memory"); v.String() != "100" {
		t.Errorf("closure memory = %s, want 100", v.String())
	}
}

// TestClosureUpdateForWeakMatch: updating a resource that matches no rule
// itself but is strongly referenced by a matched resource publishes a
// closure update (the referencing resource is unchanged).
func TestClosureUpdate(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	// Update only the ServerInformation (cpu 600 -> 700). The host resource
	// is unchanged and matches only through its own properties.
	doc2 := figure1Doc()
	info2, _ := doc2.Find("doc.rdf#info")
	info2.Set("cpu", rdf.Lit("700"))
	ps, err := e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.ClosureUpserts) != 1 || cs.ClosureUpserts[0].URIRef != "doc.rdf#info" {
		t.Fatalf("closure update not published: %+v", cs)
	}
	if v, _ := cs.ClosureUpserts[0].Get("cpu"); v.String() != "700" {
		t.Errorf("closure update carries cpu %s, want 700", v.String())
	}
}

// TestDeleteDocument: removing a whole document publishes removals and
// forced deletes.
func TestDeleteDocument(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	ps, err := e.DeleteDocument("doc.rdf")
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil {
		t.Fatal("no changeset on delete")
	}
	if len(cs.Removals) == 0 {
		t.Error("no removals on delete")
	}
	wantDeleted := map[string]bool{"doc.rdf#host": true, "doc.rdf#info": true}
	for _, d := range cs.ForcedDeletes {
		delete(wantDeleted, d)
	}
	if len(wantDeleted) != 0 {
		t.Errorf("forced deletes missing: %v (got %v)", wantDeleted, cs.ForcedDeletes)
	}
	if e.ResourceCount() != 0 || e.StatementCount() != 0 {
		t.Errorf("data remains after delete: %d resources, %d statements",
			e.ResourceCount(), e.StatementCount())
	}
	if _, err := e.DeleteDocument("doc.rdf"); err == nil {
		t.Error("double delete accepted")
	}
	// Re-registration after delete works.
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Errorf("re-registration after delete: %v", err)
	}
}

// TestUnsubscribeSweepsRules: unsubscribing releases atomic rules; shared
// rules survive while exclusively owned rules are swept.
func TestUnsubscribeSweepsRules(t *testing.T) {
	e := newTestEngine(t)
	id1, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := e.Subscribe("lmr2",
		`search CycleProvider c register c where c.serverInformation.cpu > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != 5 {
		t.Fatalf("atomic rules = %d, want 5", got)
	}
	// Unsubscribing lmr2 sweeps RuleB2 and RuleC2 but keeps shared RuleA.
	if err := e.Unsubscribe(id2); err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != 3 {
		t.Errorf("atomic rules after first unsubscribe = %d, want 3", got)
	}
	if err := e.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	if got := e.AtomicRuleCount(); got != 0 {
		t.Errorf("atomic rules after full unsubscribe = %d, want 0", got)
	}
	if got := e.RuleGroupCount(); got != 0 {
		t.Errorf("groups after full unsubscribe = %d, want 0", got)
	}
	// Filter tables swept too.
	for _, table := range []string{"FilterRulesANY", "FilterRulesGT", "RuleResults", "JoinRules", "GroupFeeds"} {
		if n := e.count(table); n != 0 {
			t.Errorf("%s has %d rows after unsubscribe", table, n)
		}
	}
	if err := e.Unsubscribe(id1); err == nil {
		t.Error("double unsubscribe accepted")
	}
	// The engine still works afterwards.
	if _, _, err := e.Subscribe("lmr1", example331); err != nil {
		t.Errorf("subscribe after sweep: %v", err)
	}
}

// TestORRuleSplitsIntoTwoEndRules: OR is handled by rule splitting and
// either disjunct matching delivers the resource once.
func TestORRule(t *testing.T) {
	e := newTestEngine(t)
	subID, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverPort = 5874 or c.serverPort = 80`)
	if err != nil {
		t.Fatal(err)
	}
	ends, _ := e.EndRulesOf(subID)
	if len(ends) != 2 {
		t.Fatalf("end rules = %v, want 2 (OR split)", ends)
	}
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatalf("OR rule match: %+v", cs)
	}
}

// TestNamedRuleExtension: a rule defined over another rule's extension.
func TestNamedRuleExtension(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterNamedRule("PassauProviders",
		`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterNamedRule("PassauProviders", `search CycleProvider c register c`); err == nil {
		t.Error("duplicate named rule accepted")
	}
	if err := e.RegisterNamedRule("CycleProvider", `search CycleProvider c register c`); err == nil {
		t.Error("class-name collision accepted")
	}
	if n := e.count("NamedRules"); n != 1 {
		t.Errorf("NamedRules holds %d rows after one accepted and two rejected registrations, want 1", n)
	}
	if _, _, err := e.Subscribe("lmr1",
		`search PassauProviders p register p where p.serverPort = 5874`); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RegisterDocument(figure1Doc())
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "doc.rdf#host" {
		t.Fatalf("named-rule subscription: %+v", cs)
	}
	if got := e.NamedRules(); len(got) != 1 || got[0] != "PassauProviders" {
		t.Errorf("NamedRules = %v", got)
	}
}

// TestBatchRegistration: several documents in one batch, each matching.
func TestBatchRegistration(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	var docs []*rdf.Document
	for i := 0; i < 10; i++ {
		doc := rdf.NewDocument(fmt.Sprintf("d%d.rdf", i))
		cp := doc.NewResource("c", "CycleProvider")
		cp.Add("serverInformation", rdf.Ref(fmt.Sprintf("d%d.rdf#s", i)))
		si := doc.NewResource("s", "ServerInformation")
		mem := "128"
		if i%2 == 1 {
			mem = "32"
		}
		si.Add("memory", rdf.Lit(mem))
		docs = append(docs, doc)
	}
	ps, err := e.RegisterDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 5 {
		t.Fatalf("batch matched %d resources, want 5", len(cs.Upserts))
	}
	st := e.Stats()
	if st.FilterRuns != 1 {
		t.Errorf("batch ran the filter %d times, want 1", st.FilterRuns)
	}
}

// TestDuplicateResourceRejected: a URI reference cannot be registered by
// two different documents.
func TestDuplicateResourceRejected(t *testing.T) {
	e := newTestEngine(t)
	d1 := rdf.NewDocument("a.rdf")
	d1.NewResource("x", "ServerInformation").Add("memory", rdf.Lit("1"))
	if _, err := e.RegisterDocument(d1); err != nil {
		t.Fatal(err)
	}
	d2 := rdf.NewDocument("b.rdf")
	d2.Resources = append(d2.Resources, &rdf.Resource{URIRef: "a.rdf#x", Class: "ServerInformation"})
	if _, err := e.RegisterDocument(d2); err == nil {
		t.Error("cross-document URI collision accepted")
	}
	// Duplicate documents within a batch rejected.
	if _, err := e.RegisterDocuments([]*rdf.Document{d1, d1}); err == nil {
		t.Error("duplicate document in batch accepted")
	}
	// Schema violations rejected.
	bad := rdf.NewDocument("c.rdf")
	bad.NewResource("y", "NoSuchClass")
	if _, err := e.RegisterDocument(bad); err == nil {
		t.Error("schema violation accepted")
	}
}

// TestAblationsAgree: disabling rule groups or sharing must not change the
// set of matches, only the amount of work.
func TestAblationsAgree(t *testing.T) {
	run := func(opts Options) []string {
		t.Helper()
		e, err := NewEngineWithOptions(paperSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, rule := range []string{
			example331,
			`search CycleProvider c register c where c.serverInformation.cpu > 500`,
			`search CycleProvider c register c where c = 'doc.rdf#host'`,
		} {
			if _, _, err := e.Subscribe(fmt.Sprintf("lmr%d", i), rule); err != nil {
				t.Fatal(err)
			}
		}
		ps, err := e.RegisterDocument(figure1Doc())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, g := range ps.Groups {
			for _, s := range g.Members {
				for _, u := range g.Changeset.Upserts {
					out = append(out, s+":"+u.Resource.URIRef)
				}
			}
		}
		sort.Strings(out)
		return out
	}
	base := run(Options{})
	noGroups := run(Options{DisableRuleGroups: true})
	noSharing := run(Options{DisableSharing: true})
	noTyped := run(Options{DisableTypedIndexes: true})
	if fmt.Sprint(base) != fmt.Sprint(noGroups) {
		t.Errorf("rule-group ablation changed results:\n%v\n%v", base, noGroups)
	}
	if fmt.Sprint(base) != fmt.Sprint(noSharing) {
		t.Errorf("sharing ablation changed results:\n%v\n%v", base, noSharing)
	}
	if fmt.Sprint(base) != fmt.Sprint(noTyped) {
		t.Errorf("typed-index ablation changed results:\n%v\n%v", base, noTyped)
	}
}

// TestBrowse: the MDP-side browsing facility of §2.2.
func TestBrowse(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Browse("CycleProvider", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].URIRef != "doc.rdf#host" {
		t.Errorf("Browse all = %v", rs)
	}
	rs, err = e.Browse("CycleProvider", "pirates")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("Browse filtered = %v", rs)
	}
	rs, err = e.Browse("CycleProvider", "nomatch")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("Browse nomatch = %v", rs)
	}
}

// TestStoredDocumentRoundTrip: documents are stored and reparseable.
func TestStoredDocumentRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	doc, err := e.StoredDocument("doc.rdf")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Resources) != 2 {
		t.Errorf("stored document has %d resources", len(doc.Resources))
	}
	uris, err := e.DocumentURIs()
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 1 || uris[0] != "doc.rdf" {
		t.Errorf("DocumentURIs = %v", uris)
	}
}

// TestSetValuedAnyOperator: the ? operator matches when any element of a
// set-valued property satisfies the predicate.
func TestSetValuedAnyOperator(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search DataProvider d register d where d.theme? = 'sports'`); err != nil {
		t.Fatal(err)
	}
	doc := rdf.NewDocument("dp.rdf")
	dp := doc.NewResource("d", "DataProvider")
	dp.Add("theme", rdf.Lit("news"))
	dp.Add("theme", rdf.Lit("sports"))
	dp.Add("theme", rdf.Lit("weather"))
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatalf("any-operator match failed: %+v", cs)
	}
	// A provider without the element does not match.
	doc2 := rdf.NewDocument("dp2.rdf")
	dp2 := doc2.NewResource("d", "DataProvider")
	dp2.Add("theme", rdf.Lit("news"))
	ps, err = e.RegisterDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Groups) != 0 {
		t.Error("non-matching set-valued resource delivered")
	}
}

// TestWeakReferenceNotTransmitted: weak references are never followed
// (§2.4).
func TestWeakReferenceNotTransmitted(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1",
		`search DataProvider d register d where d.theme? = 'sports'`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	doc := rdf.NewDocument("dp.rdf")
	dp := doc.NewResource("d", "DataProvider")
	dp.Add("theme", rdf.Lit("sports"))
	dp.Add("host", rdf.Ref("doc.rdf#host")) // weak reference
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatalf("match failed: %+v", cs)
	}
	if len(cs.Upserts[0].Closure) != 0 {
		t.Errorf("weak reference transmitted: %+v", cs.Upserts[0].Closure)
	}
}

// TestTransitiveStrongClosure: strong closures follow chains.
func TestTransitiveStrongClosure(t *testing.T) {
	s := paperSchema()
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{
		Name: "rack", Type: rdf.TypeResource, RefClass: "Rack", RefKind: rdf.StrongRef})
	s.MustAddProperty("Rack", rdf.PropertyDef{Name: "location", Type: rdf.TypeString})
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Subscribe("lmr1",
		`search CycleProvider c register c where c.serverPort = 5874`); err != nil {
		t.Fatal(err)
	}
	doc := figure1Doc()
	info, _ := doc.Find("doc.rdf#info")
	info.Add("rack", rdf.Ref("doc.rdf#rack"))
	rack := doc.NewResource("rack", "Rack")
	rack.Add("location", rdf.Lit("passau-dc-1"))
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 {
		t.Fatal("no match")
	}
	if len(cs.Upserts[0].Closure) != 2 {
		t.Errorf("transitive closure = %v, want info and rack", len(cs.Upserts[0].Closure))
	}
}

// TestEngineConcurrentPublishesAndReaders hammers one engine with parallel
// writers and readers under -race: publishes must not race the engine's
// RW-locked read surface, and the final state must equal a control engine
// fed the same documents serially.
func TestEngineConcurrentPublishesAndReaders(t *testing.T) {
	e, control := newTestEngine(t), newTestEngine(t)
	rules := []string{
		`search CycleProvider c register c`,
		`search CycleProvider c register c where c.serverPort >= 0`,
		`search CycleProvider c register c where c.serverHost contains 'example'`,
		`search ServerInformation s register s where s.memory > 10`,
		`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort > 0`,
	}
	var subs []int64
	for _, r := range rules {
		id, _, err := e.Subscribe("lmr1", r)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := control.Subscribe("lmr1", r); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, id)
	}

	const writers = 4
	const docsPerWriter = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				doc := rdf.NewDocument(fmt.Sprintf("w%d-%d.rdf", w, i))
				cp := doc.NewResource("cp", "CycleProvider")
				cp.Add("serverHost", rdf.Lit("h.example.org"))
				cp.Add("serverPort", rdf.Lit(fmt.Sprint(i+1)))
				cp.Add("serverInformation", rdf.Ref(doc.URI+"#si"))
				si := doc.NewResource("si", "ServerInformation")
				si.Add("memory", rdf.Lit(fmt.Sprint(16*(i+1))))
				si.Add("cpu", rdf.Lit("600"))
				if _, err := e.RegisterDocument(doc); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Browse("CycleProvider", "example"); err != nil {
					t.Errorf("browse: %v", err)
					return
				}
				// FilterRuns and the deprecated ShardedFilterRuns are bumped
				// at different points of one run: a torn copy tells them apart.
				if st := e.Stats(); st.ShardedFilterRuns != st.FilterRuns {
					t.Errorf("stats torn: %d filter runs, %d triggering runs", st.FilterRuns, st.ShardedFilterRuns)
					return
				}
				if _, err := e.MatchingResources(subs[0]); err != nil {
					t.Errorf("matches: %v", err)
					return
				}
				if _, err := e.Subscriptions(); err != nil {
					t.Errorf("subscriptions: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Feed the control engine the same documents serially; every
	// subscription must hold identical matches and no scratch may be left
	// after the concurrent episode.
	for w := 0; w < writers; w++ {
		for i := 0; i < docsPerWriter; i++ {
			doc := rdf.NewDocument(fmt.Sprintf("w%d-%d.rdf", w, i))
			cp := doc.NewResource("cp", "CycleProvider")
			cp.Add("serverHost", rdf.Lit("h.example.org"))
			cp.Add("serverPort", rdf.Lit(fmt.Sprint(i+1)))
			cp.Add("serverInformation", rdf.Ref(doc.URI+"#si"))
			si := doc.NewResource("si", "ServerInformation")
			si.Add("memory", rdf.Lit(fmt.Sprint(16*(i+1))))
			si.Add("cpu", rdf.Lit("600"))
			if _, err := control.RegisterDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range subs {
		got, err := e.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		gu := make([]string, len(got))
		for i, r := range got {
			gu[i] = r.URIRef
		}
		wu := make([]string, len(want))
		for i, r := range want {
			wu[i] = r.URIRef
		}
		if fmt.Sprint(gu) != fmt.Sprint(wu) {
			t.Errorf("sub %d: concurrent matches %v, serial control %v", id, gu, wu)
		}
	}
	checkNoScratch(t, e)
}

// TestClosureCarriesNewStrongTargets: schema A → B → C → D, every reference
// strong, and a subscription to A. When B, cached only through A, gains its
// strong reference to C, the closure upsert of B carries C and D with it
// (§2.4: strongly referenced resources travel with the referencing one);
// the subscriber caches neither yet.
func TestClosureCarriesNewStrongTargets(t *testing.T) {
	s := rdf.NewSchema()
	strong := func(from, prop, to string) {
		s.MustAddProperty(from, rdf.PropertyDef{Name: prop, Type: rdf.TypeResource, RefClass: to, RefKind: rdf.StrongRef})
	}
	strong("A", "b", "B")
	strong("B", "c", "C")
	strong("C", "d", "D")
	s.MustAddProperty("B", rdf.PropertyDef{Name: "name", Type: rdf.TypeString})
	s.MustAddProperty("D", rdf.PropertyDef{Name: "label", Type: rdf.TypeString})
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Subscribe("lmr1", `search A a register a`); err != nil {
		t.Fatal(err)
	}
	version := func(linked bool) *rdf.Document {
		doc := rdf.NewDocument("d.rdf")
		doc.NewResource("a", "A").Add("b", rdf.Ref(doc.QualifyID("b")))
		b := doc.NewResource("b", "B")
		b.Add("name", rdf.Lit("x"))
		if linked {
			b.Add("c", rdf.Ref(doc.QualifyID("c")))
		}
		doc.NewResource("c", "C").Add("d", rdf.Ref(doc.QualifyID("d")))
		doc.NewResource("d", "D").Add("label", rdf.Lit("y"))
		return doc
	}
	ps, err := e.RegisterDocument(version(false))
	if err != nil {
		t.Fatal(err)
	}
	cs := changesetOf(ps, "lmr1")
	if cs == nil || len(cs.Upserts) != 1 || len(cs.Upserts[0].Closure) != 1 {
		t.Fatalf("first version: want a with closure [b], got %+v", cs)
	}
	ps, err = e.RegisterDocument(version(true))
	if err != nil {
		t.Fatal(err)
	}
	cs = changesetOf(ps, "lmr1")
	if cs == nil {
		t.Fatal("the update of b notifies no one")
	}
	var got []string
	for _, res := range cs.ClosureUpserts {
		got = append(got, res.URIRef)
	}
	if want := []string{"d.rdf#b", "d.rdf#c", "d.rdf#d"}; !slices.Equal(got, want) {
		t.Errorf("closure upserts = %v, want %v", got, want)
	}
	if len(cs.Upserts) != 0 {
		t.Errorf("unchanged a re-sent: %v", upsertURIs(cs))
	}
}
