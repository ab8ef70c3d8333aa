package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// memRule pairs with memDoc: PATH rule n matches the document whose
// ServerInformation.memory is n.
func memRule(n int) string {
	return fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.memory = %d`, n)
}

func memDoc(i, port int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("m%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("host%d.uni-passau.de", i)))
	host.Add("serverPort", rdf.Lit(fmt.Sprint(port)))
	host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(fmt.Sprint(i)))
	info.Add("cpu", rdf.Lit("600"))
	return doc
}

// TestInterestGroupGrouping: subscribers whose batch outcome is identical
// share one changeset (built once), with unioned credits and a MemberCredits
// ownership map; subscribers with different interests get their own groups.
// The counters prove the work happened once per group, not per subscriber.
func TestInterestGroupGrouping(t *testing.T) {
	e := newTestEngine(t)
	aID, _, err := e.Subscribe("lmr-a", memRule(0))
	if err != nil {
		t.Fatal(err)
	}
	bID, _, err := e.Subscribe("lmr-b", memRule(0)) // identical to lmr-a
	if err != nil {
		t.Fatal(err)
	}
	c0ID, _, err := e.Subscribe("lmr-c", memRule(0)) // overlaps lmr-a...
	if err != nil {
		t.Fatal(err)
	}
	c1ID, _, err := e.Subscribe("lmr-c", memRule(1)) // ...but not fully
	if err != nil {
		t.Fatal(err)
	}
	dID, _, err := e.Subscribe("lmr-d", memRule(1))
	if err != nil {
		t.Fatal(err)
	}

	before := e.Stats()
	ps, err := e.RegisterDocuments([]*rdf.Document{memDoc(0, 80), memDoc(1, 80)})
	if err != nil {
		t.Fatal(err)
	}
	groups := ps.Groups
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 ({lmr-a,lmr-b}, {lmr-c}, {lmr-d})", len(groups))
	}

	// Group order is deterministic: by first member.
	shared := groups[0]
	if !reflect.DeepEqual(shared.Members, []string{"lmr-a", "lmr-b"}) {
		t.Fatalf("group 0 members = %v, want [lmr-a lmr-b]", shared.Members)
	}
	cs := shared.Changeset
	if len(cs.Upserts) != 1 || cs.Upserts[0].Resource.URIRef != "m0.rdf#host" {
		t.Fatalf("shared group upserts = %+v, want one m0.rdf#host", cs.Upserts)
	}
	wantUnion := []int64{aID, bID}
	sort.Slice(wantUnion, func(i, j int) bool { return wantUnion[i] < wantUnion[j] })
	if !reflect.DeepEqual(cs.Upserts[0].SubIDs, wantUnion) {
		t.Errorf("shared upsert SubIDs = %v, want union %v", cs.Upserts[0].SubIDs, wantUnion)
	}
	if len(cs.Upserts[0].Closure) != 1 || cs.Upserts[0].Closure[0].URIRef != "m0.rdf#info" {
		t.Errorf("shared upsert closure = %+v, want m0.rdf#info", cs.Upserts[0].Closure)
	}
	wantCredits := map[string][]int64{"lmr-a": {aID}, "lmr-b": {bID}}
	if !reflect.DeepEqual(cs.MemberCredits, wantCredits) {
		t.Errorf("MemberCredits = %v, want %v", cs.MemberCredits, wantCredits)
	}
	// Both members read the one shared changeset.
	if changesetOf(ps, "lmr-a") != cs || changesetOf(ps, "lmr-b") != cs {
		t.Error("group members do not share the group changeset")
	}

	cGroup := groups[1]
	if !reflect.DeepEqual(cGroup.Members, []string{"lmr-c"}) {
		t.Fatalf("group 1 members = %v, want [lmr-c]", cGroup.Members)
	}
	if got := upsertURIs(cGroup.Changeset); !reflect.DeepEqual(got, []string{"m0.rdf#host", "m1.rdf#host"}) {
		t.Errorf("lmr-c upserts = %v, want both hosts", got)
	}
	if cGroup.Changeset.MemberCredits != nil {
		t.Errorf("single-member group has MemberCredits %v, want nil", cGroup.Changeset.MemberCredits)
	}
	if !reflect.DeepEqual(cGroup.Changeset.Upserts[0].SubIDs, []int64{c0ID}) ||
		!reflect.DeepEqual(cGroup.Changeset.Upserts[1].SubIDs, []int64{c1ID}) {
		t.Errorf("lmr-c credits = %v/%v, want [%d]/[%d]",
			cGroup.Changeset.Upserts[0].SubIDs, cGroup.Changeset.Upserts[1].SubIDs, c0ID, c1ID)
	}

	dGroup := groups[2]
	if !reflect.DeepEqual(dGroup.Members, []string{"lmr-d"}) {
		t.Fatalf("group 2 members = %v, want [lmr-d]", dGroup.Members)
	}
	if got := upsertURIs(dGroup.Changeset); !reflect.DeepEqual(got, []string{"m1.rdf#host"}) {
		t.Errorf("lmr-d upserts = %v, want m1.rdf#host", got)
	}
	if !reflect.DeepEqual(dGroup.Changeset.Upserts[0].SubIDs, []int64{dID}) {
		t.Errorf("lmr-d credits = %v, want [%d]", dGroup.Changeset.Upserts[0].SubIDs, dID)
	}

	// Compute-once: three changesets for four subscribers, and the two
	// distinct host resources were fetched + closure-walked exactly once
	// each despite appearing in multiple groups.
	st := e.Stats()
	if got := st.ChangesetsBuilt - before.ChangesetsBuilt; got != 3 {
		t.Errorf("ChangesetsBuilt += %d, want 3", got)
	}
	if got := st.PublishGroups - before.PublishGroups; got != 3 {
		t.Errorf("PublishGroups += %d, want 3", got)
	}
	if got := st.GroupedSubscribers - before.GroupedSubscribers; got != 4 {
		t.Errorf("GroupedSubscribers += %d, want 4", got)
	}
	if got := st.UpsertsBuilt - before.UpsertsBuilt; got != 2 {
		t.Errorf("UpsertsBuilt += %d, want 2 (one per distinct URI)", got)
	}

	// A removal round coalesces too: bumping m0's memory off rule 0 makes
	// lmr-a, lmr-b, and lmr-c lose the same match — one group of three.
	changed := memDoc(0, 80)
	info, _ := changed.Find("m0.rdf#info")
	info.Set("memory", rdf.Lit("99"))
	ps, err = e.RegisterDocuments([]*rdf.Document{changed})
	if err != nil {
		t.Fatal(err)
	}
	groups = ps.Groups
	if len(groups) != 1 || !reflect.DeepEqual(groups[0].Members, []string{"lmr-a", "lmr-b", "lmr-c"}) {
		t.Fatalf("removal groups = %+v, want one group [lmr-a lmr-b lmr-c]", groups)
	}
	rcs := groups[0].Changeset
	wantRemovals := []Removal{
		{URIRef: "m0.rdf#host", SubID: aID},
		{URIRef: "m0.rdf#host", SubID: bID},
		{URIRef: "m0.rdf#host", SubID: c0ID},
	}
	sort.Slice(wantRemovals, func(i, j int) bool { return wantRemovals[i].SubID < wantRemovals[j].SubID })
	if !reflect.DeepEqual(rcs.Removals, wantRemovals) {
		t.Errorf("removals = %v, want %v", rcs.Removals, wantRemovals)
	}
	if len(rcs.MemberCredits) != 3 {
		t.Errorf("removal MemberCredits = %v, want entries for all three members", rcs.MemberCredits)
	}
	if !reflect.DeepEqual(rcs.MemberCredits["lmr-c"], []int64{c0ID}) {
		t.Errorf("lmr-c removal credits = %v, want [%d] (only the shared rule)",
			rcs.MemberCredits["lmr-c"], c0ID)
	}
}

// ownedView renders the slice of a changeset one member owns — upserts and
// removals restricted to its MemberCredits (everything, when nil) — in a
// canonical form, so coalesced and per-subscriber builds can be compared.
// A non-nil ids renames each subscription ID it prints.
func ownedView(name string, cs *Changeset, ids map[int64]int64) string {
	if cs == nil {
		return "<nil>"
	}
	credited := map[int64]bool{}
	if cs.MemberCredits != nil {
		for _, id := range cs.MemberCredits[name] {
			credited[id] = true
		}
	}
	has := func(id int64) bool { return cs.MemberCredits == nil || credited[id] }
	rename := func(id int64) int64 {
		if ids != nil {
			return ids[id]
		}
		return id
	}
	var b strings.Builder
	for _, up := range cs.Upserts {
		var owned []int64
		for _, id := range up.SubIDs {
			if has(id) {
				owned = append(owned, rename(id))
			}
		}
		if len(owned) == 0 {
			continue
		}
		fmt.Fprintf(&b, "up %s %v %s\n", up.Resource.URIRef, owned, up.Resource.Fingerprint())
		for _, cl := range up.Closure {
			fmt.Fprintf(&b, "  cl %s %s\n", cl.URIRef, cl.Fingerprint())
		}
	}
	for _, rm := range cs.Removals {
		if has(rm.SubID) {
			fmt.Fprintf(&b, "rm %s %d\n", rm.URIRef, rename(rm.SubID))
		}
	}
	for _, cl := range cs.ClosureUpserts {
		fmt.Fprintf(&b, "clup %s %s\n", cl.URIRef, cl.Fingerprint())
	}
	for _, fd := range cs.ForcedDeletes {
		fmt.Fprintf(&b, "del %s\n", fd)
	}
	return b.String()
}

// TestCoalescingAblationParity drives the coalesced engine and a
// per-subscriber reference through the same workload — upserts, updates,
// removals, and a document delete — and checks every subscriber's owned
// view of every publish is identical between the two. The reference is one
// fresh engine per subscriber holding only that subscriber's
// subscriptions, so it builds what the pre-group engine built: one
// changeset per subscriber, no MemberCredits, no caches shared between
// subscribers. Subscriptions are numbered in order on every engine, so a
// reference's sub IDs map to the coalesced engine's by subscription order.
func TestCoalescingAblationParity(t *testing.T) {
	co := newTestEngine(t)
	refs := map[string]*Engine{}
	ids := map[string]map[int64]int64{} // subscriber -> reference ID -> coalesced ID
	subscribers := []string{"lmr-a", "lmr-b", "lmr-c", "lmr-d"}
	for _, sub := range subscribers {
		refs[sub], ids[sub] = newTestEngine(t), map[int64]int64{}
	}
	for _, pair := range []struct {
		sub  string
		rule string
	}{
		{"lmr-a", memRule(0)}, {"lmr-b", memRule(0)},
		{"lmr-c", memRule(0)}, {"lmr-c", memRule(1)}, {"lmr-d", memRule(1)},
	} {
		coID, _, err := co.Subscribe(pair.sub, pair.rule)
		if err != nil {
			t.Fatal(err)
		}
		refID, _, err := refs[pair.sub].Subscribe(pair.sub, pair.rule)
		if err != nil {
			t.Fatal(err)
		}
		ids[pair.sub][refID] = coID
	}

	// One step = the same mutation applied to every engine; after each,
	// every subscriber's owned view must match its reference's.
	step := func(label string, run func(e *Engine) (*PublishSet, error)) {
		t.Helper()
		psCo, err := run(co)
		if err != nil {
			t.Fatalf("%s (coalesced): %v", label, err)
		}
		for _, sub := range subscribers {
			psRef, err := run(refs[sub])
			if err != nil {
				t.Fatalf("%s (%s reference): %v", label, sub, err)
			}
			got := ownedView(sub, changesetOf(psCo, sub), nil)
			want := ownedView(sub, changesetOf(psRef, sub), ids[sub])
			if got != want {
				t.Errorf("%s: %s diverged\ncoalesced:\n%s\nreference:\n%s", label, sub, got, want)
			}
		}
	}

	step("initial batch", func(e *Engine) (*PublishSet, error) {
		return e.RegisterDocuments([]*rdf.Document{memDoc(0, 80), memDoc(1, 80), memDoc(2, 80)})
	})
	step("update batch", func(e *Engine) (*PublishSet, error) {
		return e.RegisterDocuments([]*rdf.Document{memDoc(0, 81), memDoc(1, 81)})
	})
	step("retarget m2 onto rule 1", func(e *Engine) (*PublishSet, error) {
		doc := memDoc(2, 81)
		info, _ := doc.Find("m2.rdf#info")
		info.Set("memory", rdf.Lit("1"))
		return e.RegisterDocuments([]*rdf.Document{doc})
	})
	step("remove m0 from rule 0", func(e *Engine) (*PublishSet, error) {
		doc := memDoc(0, 81)
		info, _ := doc.Find("m0.rdf#info")
		info.Set("memory", rdf.Lit("99"))
		return e.RegisterDocuments([]*rdf.Document{doc})
	})
	step("delete m1.rdf", func(e *Engine) (*PublishSet, error) {
		return e.DeleteDocument("m1.rdf")
	})

	// The references did strictly more construction work for the same
	// output.
	coSt := co.Stats()
	var refChangesets, refUpserts int
	for _, ref := range refs {
		refChangesets += ref.Stats().ChangesetsBuilt
		refUpserts += ref.Stats().UpsertsBuilt
	}
	if coSt.ChangesetsBuilt >= refChangesets {
		t.Errorf("ChangesetsBuilt: coalesced %d, per-subscriber sum %d — coalescing should build fewer",
			coSt.ChangesetsBuilt, refChangesets)
	}
	if coSt.UpsertsBuilt >= refUpserts {
		t.Errorf("UpsertsBuilt: coalesced %d, per-subscriber sum %d — shared URI cache should build fewer",
			coSt.UpsertsBuilt, refUpserts)
	}
}
