package repository

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/query"
	"mdv/internal/rdf"
)

func testSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{
		Name: "serverInformation", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "cpu", Type: rdf.TypeInteger})
	return s
}

func newRepo(t *testing.T) *Repository {
	t.Helper()
	r, err := New("lmr-test", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func hostResource(uri string, port int) *rdf.Resource {
	r := &rdf.Resource{URIRef: uri, Class: "CycleProvider"}
	r.Add("serverHost", rdf.Lit("pirates.uni-passau.de"))
	r.Add("serverPort", rdf.Lit(fmt.Sprint(port)))
	return r
}

func infoResource(uri string, memory int) *rdf.Resource {
	r := &rdf.Resource{URIRef: uri, Class: "ServerInformation"}
	r.Add("memory", rdf.Lit(fmt.Sprint(memory)))
	r.Add("cpu", rdf.Lit("600"))
	return r
}

func TestApplyUpsertAndGet(t *testing.T) {
	r := newRepo(t)
	host := hostResource("d#h", 80)
	host.Add("serverInformation", rdf.Ref("d#i"))
	cs := &core.Changeset{Upserts: []core.Upsert{{
		Resource: host,
		SubIDs:   []int64{1},
		Closure:  []*rdf.Resource{infoResource("d#i", 92)},
	}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (resource + closure)", r.Len())
	}
	got, ok, err := r.Get("d#h")
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if v, _ := got.Get("serverHost"); v.String() != "pirates.uni-passau.de" {
		t.Errorf("serverHost = %s", v.String())
	}
	credits, _ := r.CreditsOf("d#h")
	if len(credits) != 1 || credits[0] != 1 {
		t.Errorf("credits = %v", credits)
	}
	// Closure resource has no credits but is held by the strong reference.
	credits, _ = r.CreditsOf("d#i")
	if len(credits) != 0 {
		t.Errorf("closure credits = %v", credits)
	}
	if !cached(t, r, "d#i") {
		t.Error("closure resource not cached")
	}
}

func TestRemovalDropsWithLastCredit(t *testing.T) {
	r := newRepo(t)
	host := hostResource("d#h", 80)
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: host, SubIDs: []int64{1, 2}}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	// Remove one credit: stays cached.
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#h", SubID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "d#h") {
		t.Fatal("resource dropped while still credited")
	}
	// Remove the last credit: GC collects it.
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#h", SubID: 2}}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h") {
		t.Error("resource survived last credit removal")
	}
	st := r.Stats()
	if st.ResourcesDropped != 1 {
		t.Errorf("ResourcesDropped = %d", st.ResourcesDropped)
	}
}

func TestGCClosureChain(t *testing.T) {
	r := newRepo(t)
	host := hostResource("d#h", 80)
	host.Add("serverInformation", rdf.Ref("d#i"))
	cs := &core.Changeset{Upserts: []core.Upsert{{
		Resource: host, SubIDs: []int64{1},
		Closure: []*rdf.Resource{infoResource("d#i", 92)},
	}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	// Dropping the holder's credit collects the closure resource too (§2.4:
	// "deleting such resources if the resource that caused their
	// transmission is deleted").
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#h", SubID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h") || cached(t, r, "d#i") {
		t.Error("closure chain not collected")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestGCSharedClosureSurvives(t *testing.T) {
	r := newRepo(t)
	info := infoResource("d#i", 92)
	h1 := hostResource("d#h1", 80)
	h1.Add("serverInformation", rdf.Ref("d#i"))
	h2 := hostResource("d#h2", 81)
	h2.Add("serverInformation", rdf.Ref("d#i"))
	cs := &core.Changeset{Upserts: []core.Upsert{
		{Resource: h1, SubIDs: []int64{1}, Closure: []*rdf.Resource{info}},
		{Resource: h2, SubIDs: []int64{2}, Closure: []*rdf.Resource{info}},
	}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	// Dropping one holder keeps the shared target alive.
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#h1", SubID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h1") {
		t.Error("h1 not collected")
	}
	if !cached(t, r, "d#i") {
		t.Error("shared closure resource collected while still referenced")
	}
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#h2", SubID: 2}}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#i") {
		t.Error("orphaned closure resource survived")
	}
}

func TestGCCycleCollected(t *testing.T) {
	s := testSchema()
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{
		Name: "twin", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	r, err := New("lmr", s)
	if err != nil {
		t.Fatal(err)
	}
	a := infoResource("d#a", 1)
	a.Add("twin", rdf.Ref("d#b"))
	b := infoResource("d#b", 2)
	b.Add("twin", rdf.Ref("d#a"))
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: a, SubIDs: []int64{1}, Closure: []*rdf.Resource{b}}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyChangeset(&core.Changeset{Removals: []core.Removal{{URIRef: "d#a", SubID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#a") || cached(t, r, "d#b") {
		t.Error("strong-reference cycle leaked (mark-and-sweep should reclaim it)")
	}
}

func TestForcedDelete(t *testing.T) {
	r := newRepo(t)
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 80), SubIDs: []int64{1}}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyChangeset(&core.Changeset{ForcedDeletes: []string{"d#h", "d#unknown"}}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h") {
		t.Error("forced delete ignored")
	}
	if r.Stats().ForcedDeletes != 1 {
		t.Errorf("ForcedDeletes = %d", r.Stats().ForcedDeletes)
	}
}

func TestClosureUpsertRefreshesOnlyCached(t *testing.T) {
	r := newRepo(t)
	host := hostResource("d#h", 80)
	host.Add("serverInformation", rdf.Ref("d#i"))
	cs := &core.Changeset{Upserts: []core.Upsert{{
		Resource: host, SubIDs: []int64{1},
		Closure: []*rdf.Resource{infoResource("d#i", 92)},
	}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	// Refresh the cached closure resource.
	if err := r.ApplyChangeset(&core.Changeset{
		ClosureUpserts: []*rdf.Resource{infoResource("d#i", 128)},
	}); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.Get("d#i")
	if v, _ := got.Get("memory"); v.String() != "128" {
		t.Errorf("memory = %s after closure upsert", v.String())
	}
	// A closure upsert for an uncached resource is ignored (no phantom
	// cache entries).
	if err := r.ApplyChangeset(&core.Changeset{
		ClosureUpserts: []*rdf.Resource{infoResource("d#other", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#other") {
		t.Error("uncached closure upsert created a cache entry")
	}
}

// TestClosureUpsertStoresNewStrongTargets: schema A → B → C → D, every
// reference strong; A is credited and caches B. When B gains its reference
// to C, the push carries C and D as closure entries the LMR does not cache
// yet. Each enters the cache because a cached resource strongly references
// it once the entries it depends on are applied, even though the push lists
// the members before their holder.
func TestClosureUpsertStoresNewStrongTargets(t *testing.T) {
	s := rdf.NewSchema()
	strong := func(from, prop, to string) {
		s.MustAddProperty(from, rdf.PropertyDef{Name: prop, Type: rdf.TypeResource, RefClass: to, RefKind: rdf.StrongRef})
	}
	strong("A", "b", "B")
	strong("B", "c", "C")
	strong("C", "d", "D")
	s.MustAddProperty("D", rdf.PropertyDef{Name: "label", Type: rdf.TypeString})
	r, err := New("lmr-test", s)
	if err != nil {
		t.Fatal(err)
	}
	a := &rdf.Resource{URIRef: "d#a", Class: "A"}
	a.Add("b", rdf.Ref("d#b"))
	b := &rdf.Resource{URIRef: "d#b", Class: "B"}
	if err := r.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{{
		Resource: a, SubIDs: []int64{1}, Closure: []*rdf.Resource{b},
	}}}); err != nil {
		t.Fatal(err)
	}
	linked := &rdf.Resource{URIRef: "d#b", Class: "B"}
	linked.Add("c", rdf.Ref("d#c"))
	c := &rdf.Resource{URIRef: "d#c", Class: "C"}
	c.Add("d", rdf.Ref("d#d"))
	d := &rdf.Resource{URIRef: "d#d", Class: "D"}
	d.Add("label", rdf.Lit("y"))
	if err := r.ApplyChangeset(&core.Changeset{
		ClosureUpserts: []*rdf.Resource{d, c, linked},
	}); err != nil {
		t.Fatal(err)
	}
	for _, uri := range []string{"d#a", "d#b", "d#c", "d#d"} {
		if !cached(t, r, uri) {
			t.Errorf("%s is not cached after B gained its strong reference", uri)
		}
	}
	if st := r.Stats(); st.ClosureUpserts != 3 {
		t.Errorf("closure upserts applied = %d, want 3", st.ClosureUpserts)
	}
}

// TestRewriteEqualsFreshStore: rewriting a cached resource writes only the
// rows that changed, and leaves exactly the rows — num_value included — and
// edges a fresh cache stores for the last version. Versions change values
// (7 → 007 too), repeat set values, add and drop strong references, and
// change the class.
func TestRewriteEqualsFreshStore(t *testing.T) {
	s := testSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "ports", Type: rdf.TypeInteger, SetValued: true})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{
		Name: "peer", Type: rdf.TypeResource, RefClass: "CycleProvider", RefKind: rdf.StrongRef})
	version := func(rng *rand.Rand) *rdf.Resource {
		if rng.Intn(5) == 0 {
			r := infoResource("d#x", rng.Intn(3))
			if rng.Intn(2) == 0 {
				r.Add("peer", rdf.Ref("d#p"))
			}
			return r
		}
		r := hostResource("d#x", 80)
		r.Set("serverPort", rdf.Lit([]string{"7", "007", "8"}[rng.Intn(3)]))
		for k := rng.Intn(4); k > 0; k-- {
			r.Add("ports", rdf.Lit([]string{"1", "2", "01"}[rng.Intn(3)]))
		}
		if rng.Intn(2) == 0 {
			r.Add("serverInformation", rdf.Ref([]string{"d#i", "d#j"}[rng.Intn(2)]))
		}
		return r
	}
	dump := func(r *Repository) string {
		t.Helper()
		var b strings.Builder
		for _, q := range []string{
			`SELECT class, local FROM Cache WHERE uri_reference = 'd#x'`,
			`SELECT class, property, value, num_value, is_ref FROM CacheStatements WHERE uri_reference = 'd#x'`,
			`SELECT target, property FROM CacheRefs WHERE holder = 'd#x'`,
		} {
			rows, err := r.DB().Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, row := range rows.Data {
				lines = append(lines, fmt.Sprint(row))
			}
			sort.Strings(lines)
			b.WriteString(strings.Join(lines, "\n") + "\n--\n")
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(7))
	r, err := New("lmr-test", s)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		res := version(rng)
		if err := r.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{{Resource: res, SubIDs: []int64{1}}}}); err != nil {
			t.Fatal(err)
		}
		fresh, err := New("fresh", s)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{{Resource: res, SubIDs: []int64{1}}}}); err != nil {
			t.Fatal(err)
		}
		if got, want := dump(r), dump(fresh); got != want {
			t.Fatalf("step %d: rewritten cache\n%s\nfresh cache\n%s", step, got, want)
		}
	}
}

func TestLocalMetadata(t *testing.T) {
	r := newRepo(t)
	doc := rdf.NewDocument("local.rdf")
	res := doc.NewResource("svc", "CycleProvider")
	res.Add("serverHost", rdf.Lit("intranet.local"))
	if err := r.RegisterLocalDocument(doc); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "local.rdf#svc") {
		t.Fatal("local resource not stored")
	}
	// Local resources are GC roots.
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "local.rdf#svc") {
		t.Error("GC collected a local resource")
	}
	// Schema violations rejected.
	bad := rdf.NewDocument("bad.rdf")
	bad.NewResource("x", "Mystery")
	if err := r.RegisterLocalDocument(bad); err == nil {
		t.Error("schema violation accepted for local metadata")
	}
	// Deletion.
	if err := r.DeleteLocalResource("local.rdf#svc"); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "local.rdf#svc") {
		t.Error("local resource survived deletion")
	}
	if err := r.DeleteLocalResource("local.rdf#svc"); err == nil {
		t.Error("double local delete accepted")
	}
	// Global resources cannot be deleted through the local path.
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 80), SubIDs: []int64{1}}}}
	r.ApplyChangeset(cs)
	if err := r.DeleteLocalResource("d#h"); err == nil {
		t.Error("global resource deleted through local path")
	}
}

func TestDropSubscriptionCredits(t *testing.T) {
	r := newRepo(t)
	cs := &core.Changeset{Upserts: []core.Upsert{
		{Resource: hostResource("d#h1", 80), SubIDs: []int64{1}},
		{Resource: hostResource("d#h2", 81), SubIDs: []int64{1, 2}},
	}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	if err := r.DropSubscriptionCredits(1); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h1") {
		t.Error("h1 survived subscription drop")
	}
	if !cached(t, r, "d#h2") {
		t.Error("h2 dropped despite second subscription")
	}
}

func TestUpsertIdempotent(t *testing.T) {
	r := newRepo(t)
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 80), SubIDs: []int64{1}}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	// Same upsert again (e.g. refreshed content) must not duplicate
	// credits or statements.
	cs2 := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 90), SubIDs: []int64{1}}}}
	if err := r.ApplyChangeset(cs2); err != nil {
		t.Fatal(err)
	}
	credits, _ := r.CreditsOf("d#h")
	if len(credits) != 1 {
		t.Errorf("credits duplicated: %v", credits)
	}
	got, _, _ := r.Get("d#h")
	if len(got.GetAll("serverPort")) != 1 {
		t.Error("statements duplicated on re-upsert")
	}
	if v, _ := got.Get("serverPort"); v.String() != "90" {
		t.Errorf("content not refreshed: %v", v)
	}
}

func TestResourcesListing(t *testing.T) {
	r := newRepo(t)
	cs := &core.Changeset{Upserts: []core.Upsert{
		{Resource: hostResource("d#h1", 80), SubIDs: []int64{1}},
		{Resource: infoResource("d#i1", 92), SubIDs: []int64{2}},
	}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	all, err := r.Resources("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("all resources = %d", len(all))
	}
	cps, err := r.Resources("CycleProvider")
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].URIRef != "d#h1" {
		t.Errorf("class listing = %v", cps)
	}
}

// TestQueryOverCache evaluates the MDV query language against the cache
// (the LMR's whole purpose: local query processing, §2.2).
func TestQueryOverCache(t *testing.T) {
	r := newRepo(t)
	var ups []core.Upsert
	for i := 1; i <= 10; i++ {
		h := hostResource(fmt.Sprintf("d#h%d", i), 8000+i)
		h.Add("serverInformation", rdf.Ref(fmt.Sprintf("d#i%d", i)))
		ups = append(ups, core.Upsert{
			Resource: h,
			SubIDs:   []int64{1},
			Closure:  []*rdf.Resource{infoResource(fmt.Sprintf("d#i%d", i), i*32)},
		})
	}
	if err := r.ApplyChangeset(&core.Changeset{Upserts: ups}); err != nil {
		t.Fatal(err)
	}
	ev := query.NewEvaluator(r.DB(), r.Schema())

	// Simple property comparison.
	res, err := ev.Evaluate(`search CycleProvider c register c where c.serverPort = 8003`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].URIRef != "d#h3" {
		t.Errorf("port query = %v", uriList(res))
	}

	// Path expression (join against the closure resources).
	res, err = ev.Evaluate(`search CycleProvider c register c where c.serverInformation.memory > 256`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 { // i9 = 288, i10 = 320
		t.Errorf("path query = %v", uriList(res))
	}

	// contains.
	res, err = ev.Evaluate(`search CycleProvider c register c where c.serverHost contains 'uni-passau'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Errorf("contains query = %d results", len(res))
	}

	// Explicit join with register of the joined side.
	res, err = ev.Evaluate(`search CycleProvider c, ServerInformation s register s
		where c.serverInformation = s and c.serverPort <= 8002`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("join register-s query = %v", uriList(res))
	}

	// OR union.
	res, err = ev.Evaluate(`search CycleProvider c register c
		where c.serverPort = 8001 or c.serverPort = 8002`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("OR query = %v", uriList(res))
	}

	// Constant on the left.
	res, err = ev.Evaluate(`search CycleProvider c register c where 8008 < c.serverPort`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("const-left query = %v", uriList(res))
	}

	// OID-style query.
	res, err = ev.Evaluate(`search CycleProvider c register c where c = 'd#h7'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].URIRef != "d#h7" {
		t.Errorf("OID query = %v", uriList(res))
	}

	// No matches.
	res, err = ev.Evaluate(`search CycleProvider c register c where c.serverPort = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty query = %v", uriList(res))
	}

	// Unknown class is an error.
	if _, err := ev.Evaluate(`search Mystery m register m`); err == nil {
		t.Error("unknown class accepted")
	}
}

func uriList(rs []*rdf.Resource) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.URIRef
	}
	return out
}

// TestTombstonedSubscriptionCredits: a changeset published before an
// unsubscribe but applied after it must not resurrect cache entries for
// the dead subscription.
func TestTombstonedSubscriptionCredits(t *testing.T) {
	r := newRepo(t)
	cs := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 80), SubIDs: []int64{1}}}}
	if err := r.ApplyChangeset(cs); err != nil {
		t.Fatal(err)
	}
	if err := r.DropSubscriptionCredits(1); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h") {
		t.Fatal("resource survived unsubscribe")
	}
	// Late-arriving changeset for the dead subscription.
	late := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h", 81), SubIDs: []int64{1}}}}
	if err := r.ApplyChangeset(late); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#h") {
		t.Error("dead subscription resurrected a cache entry")
	}
	// A live subscription sharing the upsert still works.
	mixed := &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource("d#h2", 82), SubIDs: []int64{1, 2}}}}
	if err := r.ApplyChangeset(mixed); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "d#h2") {
		t.Fatal("live subscription's upsert dropped")
	}
	credits, _ := r.CreditsOf("d#h2")
	if len(credits) != 1 || credits[0] != 2 {
		t.Errorf("credits = %v, want only the live subscription", credits)
	}
}

// TestApplyPushDeduplicatesBySequence: sequenced pushes at or below the
// cursor are duplicates from an at-least-once replay and must be skipped.
func TestApplyPushDeduplicatesBySequence(t *testing.T) {
	r := newRepo(t)
	up := func(uri string, port int) *core.Changeset {
		return &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource(uri, port), SubIDs: []int64{1}}}}
	}
	if err := r.ApplyPush(5, false, up("d#a", 80)); err != nil {
		t.Fatal(err)
	}
	if r.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", r.LastSeq())
	}
	// Re-delivery of seq 5 and an older seq 3: both skipped.
	if err := r.ApplyPush(5, false, up("d#b", 80)); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyPush(3, false, up("d#c", 80)); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#b") || cached(t, r, "d#c") {
		t.Error("duplicate push was applied")
	}
	if got := r.Stats().DuplicatesSkipped; got != 2 {
		t.Errorf("DuplicatesSkipped = %d, want 2", got)
	}
	// Unsequenced pushes (seq 0, as ApplyChangeset sends) always apply.
	if err := r.ApplyPush(0, false, up("d#d", 80)); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "d#d") {
		t.Error("unsequenced push was skipped")
	}
	if r.LastSeq() != 5 {
		t.Errorf("LastSeq = %d after unsequenced push, want 5", r.LastSeq())
	}
	// A newer sequence applies and advances the cursor.
	if err := r.ApplyPush(6, false, up("d#e", 80)); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "d#e") || r.LastSeq() != 6 {
		t.Errorf("seq 6: Has=%v LastSeq=%d", cached(t, r, "d#e"), r.LastSeq())
	}
}

// TestApplyPushResetDropsGlobalKeepsLocal: a reset push replaces the cached
// global metadata wholesale but leaves LMR-private resources alone.
func TestApplyPushResetDropsGlobalKeepsLocal(t *testing.T) {
	r := newRepo(t)
	stale := &core.Changeset{Upserts: []core.Upsert{
		{Resource: hostResource("d#old1", 80), SubIDs: []int64{1}},
		{Resource: hostResource("d#old2", 80), SubIDs: []int64{1}},
	}}
	if err := r.ApplyPush(2, false, stale); err != nil {
		t.Fatal(err)
	}
	doc := rdf.NewDocument("local.rdf")
	doc.NewResource("mine", "CycleProvider").Add("serverPort", rdf.Lit("99"))
	if err := r.RegisterLocalDocument(doc); err != nil {
		t.Fatal(err)
	}
	fresh := &core.Changeset{Upserts: []core.Upsert{
		{Resource: hostResource("d#new", 81), SubIDs: []int64{1}},
	}}
	if err := r.ApplyPush(9, true, fresh); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#old1") || cached(t, r, "d#old2") {
		t.Error("stale global resources survived the reset")
	}
	if !cached(t, r, "d#new") {
		t.Error("reset changeset content missing")
	}
	if !cached(t, r, "local.rdf#mine") {
		t.Error("local resource dropped by reset")
	}
	if r.LastSeq() != 9 {
		t.Errorf("LastSeq = %d, want 9", r.LastSeq())
	}
	if got := r.Stats().Resets; got != 1 {
		t.Errorf("Resets = %d, want 1", got)
	}
}

// TestApplyPushResetRewindsCursor: a reset push with a sequence below the
// cursor (the provider restarted with a shorter, recovered log) rebases
// the cursor backwards; live pushes in the reused sequence range must then
// apply instead of being skipped as duplicates.
func TestApplyPushResetRewindsCursor(t *testing.T) {
	r := newRepo(t)
	up := func(uri string, port int) *core.Changeset {
		return &core.Changeset{Upserts: []core.Upsert{{Resource: hostResource(uri, port), SubIDs: []int64{1}}}}
	}
	if err := r.ApplyPush(50, false, up("d#pre", 80)); err != nil {
		t.Fatal(err)
	}
	if r.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", r.LastSeq())
	}
	// The provider crashed, lost its log tail, and restarted numbering at a
	// lower sequence: the reset arrives with seq 3 < cursor 50.
	if err := r.ApplyPush(3, true, up("d#base", 81)); err != nil {
		t.Fatal(err)
	}
	if cached(t, r, "d#pre") {
		t.Error("stale global resource survived the reset")
	}
	if r.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d after reset at seq 3, want 3 (cursor must rewind)", r.LastSeq())
	}
	// Live pushes in the sequence range the old cursor already covered.
	if err := r.ApplyPush(4, false, up("d#live", 82)); err != nil {
		t.Fatal(err)
	}
	if !cached(t, r, "d#live") {
		t.Error("live push after reset skipped as duplicate (lost update)")
	}
	if r.LastSeq() != 4 {
		t.Errorf("LastSeq = %d, want 4", r.LastSeq())
	}
	if got := r.Stats().DuplicatesSkipped; got != 0 {
		t.Errorf("DuplicatesSkipped = %d, want 0", got)
	}
}

// TestSweepOnlyWhenDue: ApplyPush skips the collector unless the push could
// have orphaned something (gcDue). Random pushes — upserts that move, drop and
// cycle strong edges, removals, forced deletes, tombstoned credits, local
// documents taking over and releasing global URIs — go to two repositories,
// one of which is also swept after every push; after every push both must
// cache the same resources (credits leave only with a dropped resource, so
// they cannot differ first).
func TestSweepOnlyWhenDue(t *testing.T) {
	schema := testSchema()
	schema.MustAddProperty("ServerInformation", rdf.PropertyDef{
		Name: "mirror", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, _ := New("lmr-test", schema)
		eager, _ := New("lmr-test", schema)
		info := func() *rdf.Resource { // a ServerInformation mirroring another one, itself, or nothing
			res := infoResource(fmt.Sprintf("g#i%d", rng.Intn(4)), rng.Intn(100))
			if k := rng.Intn(6); k < 4 {
				res.Add("mirror", rdf.Ref(fmt.Sprintf("g#i%d", k)))
			}
			return res
		}
		for step := 0; step < 300; step++ {
			cs, local, dropSub := &core.Changeset{}, (*rdf.Document)(nil), int64(0)
			host := fmt.Sprintf("g#h%d", rng.Intn(5))
			switch op := rng.Intn(12); {
			case op < 5:
				up := core.Upsert{Resource: hostResource(host, step)}
				for sub := int64(1); sub <= 3; sub++ {
					if rng.Intn(2) == 0 {
						up.SubIDs = append(up.SubIDs, sub)
					}
				}
				if rng.Intn(4) > 0 {
					up.Closure = []*rdf.Resource{info(), info()}
					up.Resource.Add("serverInformation", rdf.Ref(up.Closure[0].URIRef))
				}
				cs.Upserts = []core.Upsert{up}
			case op < 7:
				cs.Removals = []core.Removal{{URIRef: host, SubID: int64(1 + rng.Intn(3))}}
			case op == 7:
				cs.ForcedDeletes = []string{host, info().URIRef}[rng.Intn(2):][:1]
			case op == 8:
				cs.ClosureUpserts = []*rdf.Resource{info()}
			case op == 9 && rng.Intn(8) == 0:
				dropSub = int64(1 + rng.Intn(3))
			case op == 10:
				local = rdf.NewDocument("g") // local metadata under a global URI
				res := local.NewResource(fmt.Sprintf("i%d", rng.Intn(4)), "ServerInformation")
				res.Add("mirror", rdf.Ref(info().URIRef))
			default:
				lazy.DeleteLocalResource("g#i0")
				eager.DeleteLocalResource("g#i0")
			}
			for _, r := range []*Repository{lazy, eager} {
				var err error
				switch {
				case local != nil:
					err = r.RegisterLocalDocument(local)
				case dropSub != 0:
					err = r.DropSubscriptionCredits(dropSub)
				default:
					err = r.ApplyChangeset(cs)
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if local != nil {
				continue // registering local metadata sweeps nothing by itself; the next push does
			}
			if _, err := eager.GC(); err != nil {
				t.Fatal(err)
			}
			want, _ := eager.Resources("")
			got, _ := lazy.Resources("")
			if !slices.Equal(uriList(got), uriList(want)) {
				t.Fatalf("seed %d step %d: cached %v, a sweep after every push leaves %v", seed, step, uriList(got), uriList(want))
			}
		}
	}
}

// TestApplySurfacesStatementErrors: a statement that fails while a changeset
// is applied fails the application — a forced delete, a closure entry and a
// tombstoned upsert each check the cache first, and a failed check is not
// "not cached". Get surfaces the same failure to its callers.
func TestApplySurfacesStatementErrors(t *testing.T) {
	for name, cs := range map[string]*core.Changeset{
		"forced delete":  {ForcedDeletes: []string{"d#h"}},
		"closure upsert": {ClosureUpserts: []*rdf.Resource{infoResource("d#i", 92)}},
		"tombstoned":     {Upserts: []core.Upsert{{Resource: hostResource("d#h", 80), SubIDs: []int64{7}}}},
	} {
		r := newRepo(t)
		if err := r.DropSubscriptionCredits(7); err != nil {
			t.Fatal(err)
		}
		if _, err := r.DB().Exec(`DROP TABLE Cache`); err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyChangeset(cs); err == nil {
			t.Errorf("%s: applied over a missing Cache table", name)
		}
	}
	r := newRepo(t)
	if _, err := r.DB().Exec(`DROP TABLE CacheStatements`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("d#h"); err == nil {
		t.Error("Get over a missing CacheStatements table returned no error")
	}
}

// cached reports whether the repository holds uri, failing the test when
// the lookup itself fails.
func cached(t *testing.T, r *Repository, uri string) bool {
	t.Helper()
	_, ok, err := r.Get(uri)
	if err != nil {
		t.Fatalf("get %s: %v", uri, err)
	}
	return ok
}

// perCreditLoop is the credit write applyUpsert made one credit at a time:
// for each id in order, tombstoned ones skipped, a SELECT of the credit and
// an INSERT when it was absent.
func perCreditLoop(have, subIDs []int64, dead map[int64]bool) []int64 {
	out := slices.Clone(have)
	for _, id := range subIDs {
		if !dead[id] && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// sqlStatements counts the statements a repository's database ran.
func sqlStatements(reg *metrics.Registry) uint64 {
	var n uint64
	for _, op := range []string{"select", "insert", "update", "delete"} {
		n += reg.Counter("mdv_sql_statements_total", "", metrics.L("op", op)).Value()
	}
	return n
}

// TestApplyUpsertCreditsAsSet: an upsert's credits — duplicates, credits
// the resource already has, tombstoned ids — leave CacheCredits as the
// per-credit loop did, and writing them takes the same number of
// statements for one credit as for fifty.
func TestApplyUpsertCreditsAsSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := newRepo(t)
		dead := map[int64]bool{}
		for id := int64(1); id <= 8; id++ {
			if rng.Intn(4) == 0 {
				dead[id] = true
				if err := r.DropSubscriptionCredits(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		draw := func() []int64 {
			ids := make([]int64, rng.Intn(6))
			for i := range ids {
				ids[i] = 1 + rng.Int63n(8)
			}
			return ids
		}
		var have []int64
		for range rng.Intn(3) {
			ids := draw()
			up := core.Upsert{Resource: hostResource("d#h", 80), SubIDs: ids}
			if err := r.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{up}}); err != nil {
				t.Fatal(err)
			}
			if cached(t, r, "d#h") {
				have = perCreditLoop(have, ids, dead)
			}
		}
		ids := draw()
		up := core.Upsert{Resource: hostResource("d#h", 81), SubIDs: ids}
		if err := r.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{up}}); err != nil {
			t.Fatal(err)
		}
		want := perCreditLoop(have, ids, dead)
		got, err := r.CreditsOf("d#h")
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: credits after %v on %v (dead %v) = %v, want %v", trial, ids, have, dead, got, want)
		}
	}

	// Statements per upsert: one credit, then fifty new ones, on the same
	// unchanged resource.
	r := newRepo(t)
	reg := metrics.NewRegistry()
	r.DB().EnableMetrics(reg)
	cost := func(ids []int64) uint64 {
		before := sqlStatements(reg)
		up := core.Upsert{Resource: hostResource("d#h", 80), SubIDs: ids}
		if err := r.ApplyChangeset(&core.Changeset{Upserts: []core.Upsert{up}}); err != nil {
			t.Fatal(err)
		}
		return sqlStatements(reg) - before
	}
	cost([]int64{1})
	one := cost([]int64{2})
	many := make([]int64, 50)
	for i := range many {
		many[i] = int64(100 + i)
	}
	if fifty := cost(many); fifty != one {
		t.Errorf("an upsert with 50 new credits ran %d statements, with one %d", fifty, one)
	}
	if got, _ := r.CreditsOf("d#h"); len(got) != 52 {
		t.Errorf("%d credits, want 52", len(got))
	}
}
