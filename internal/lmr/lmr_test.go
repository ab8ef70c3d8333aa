package lmr_test

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
	"mdv/internal/repository"
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

func providerDoc(i, memory int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("host%02d.uni-passau.de", i)))
	host.Add("serverPort", rdf.Lit(fmt.Sprint(5000+i)))
	host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(fmt.Sprint(memory)))
	info.Add("cpu", rdf.Lit("600"))
	return doc
}

// TestInProcessThreeTier exercises the full architecture of Figure 2 in a
// single process: MDP backbone node, LMR cache, client queries.
func TestInProcessThreeTier(t *testing.T) {
	schema := testSchema()
	mdp, err := provider.New("mdp1", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	node, err := lmr.New("lmr1", schema, mdp)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-existing metadata.
	if err := mdp.RegisterDocument(providerDoc(1, 128)); err != nil {
		t.Fatal(err)
	}
	// Subscribe: initial fill arrives via the attached channel.
	subID, err := node.AddSubscription(
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	if !cached(t, node.Repository(), "doc1.rdf#host") {
		t.Fatal("initial fill missing")
	}
	if !cached(t, node.Repository(), "doc1.rdf#info") {
		t.Fatal("initial fill missing strong closure")
	}

	// Live publication: new matching and non-matching documents.
	if err := mdp.RegisterDocument(providerDoc(2, 256)); err != nil {
		t.Fatal(err)
	}
	if err := mdp.RegisterDocument(providerDoc(3, 16)); err != nil {
		t.Fatal(err)
	}
	if !cached(t, node.Repository(), "doc2.rdf#host") {
		t.Error("matching document not published")
	}
	if cached(t, node.Repository(), "doc3.rdf#host") {
		t.Error("non-matching document published")
	}

	// Local queries over the cache.
	rs, err := node.Query(`search CycleProvider c register c where c.serverInformation.memory >= 128`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("query found %d resources, want 2", len(rs))
	}

	// Update at the MDP propagates.
	doc := providerDoc(1, 32) // drops below the threshold
	if err := mdp.RegisterDocument(doc); err != nil {
		t.Fatal(err)
	}
	if cached(t, node.Repository(), "doc1.rdf#host") {
		t.Error("stale resource survived update")
	}

	// Unsubscribe clears the cache.
	if err := node.RemoveSubscription(subID); err != nil {
		t.Fatal(err)
	}
	if node.Repository().Len() != 0 {
		t.Errorf("cache holds %d resources after unsubscribe", node.Repository().Len())
	}
	if _, err := node.Query(`search CycleProvider c register c`); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveSubscription(subID); err == nil {
		t.Error("double unsubscribe accepted")
	}
}

// TestLocalMetadataInQueries: LMR-private metadata participates in local
// query evaluation but never reaches the MDP.
func TestLocalMetadataInQueries(t *testing.T) {
	schema := testSchema()
	mdp, err := provider.New("mdp1", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	node, err := lmr.New("lmr1", schema, mdp)
	if err != nil {
		t.Fatal(err)
	}
	local := rdf.NewDocument("private.rdf")
	r := local.NewResource("secret", "CycleProvider")
	r.Add("serverHost", rdf.Lit("internal.corp"))
	r.Add("serverPort", rdf.Lit("22"))
	if err := node.RegisterLocalDocument(local); err != nil {
		t.Fatal(err)
	}
	rs, err := node.Query(`search CycleProvider c register c where c.serverHost contains 'corp'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("local metadata not queryable: %d results", len(rs))
	}
	// The MDP knows nothing about it.
	global, err := mdp.Browse("CycleProvider", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(global) != 0 {
		t.Error("local metadata leaked to the backbone")
	}
}

// TestWireEndToEnd runs the full architecture over real TCP sockets: MDP
// server, LMR node connected via the network client, and an application
// client querying the LMR server.
func TestWireEndToEnd(t *testing.T) {
	schema := testSchema()
	mdp, err := provider.New("mdp1", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	mdpAddr, err := mdp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// LMR connects to the MDP over the wire.
	mdpClient, err := client.DialMDP(mdpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mdpClient.Close()
	node, err := lmr.New("lmr1", schema, mdpClient)
	if err != nil {
		t.Fatal(err)
	}
	lmrAddr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// An administrator registers documents at the MDP over the wire.
	admin, err := client.DialMDP(mdpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.RegisterDocument(providerDoc(1, 128)); err != nil {
		t.Fatal(err)
	}

	// An application talks to the LMR over the wire.
	app, err := client.DialLMR(lmrAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	subID, err := app.AddSubscription(
		`search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Error("subscription id missing")
	}

	rs, err := app.Query(`search CycleProvider c register c where c.serverHost contains 'uni-passau'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].URIRef != "doc1.rdf#host" {
		t.Fatalf("wire query = %v", rs)
	}

	// A registration at the MDP is pushed to the LMR asynchronously.
	if err := admin.RegisterDocument(providerDoc(2, 256)); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return cached(t, node.Repository(), "doc2.rdf#host") }) {
		t.Fatal("push notification did not arrive")
	}

	// Browse at the MDP over the wire.
	browsed, err := admin.Browse("CycleProvider", "host02")
	if err != nil {
		t.Fatal(err)
	}
	if len(browsed) != 1 {
		t.Errorf("browse = %v", browsed)
	}

	// Fetch a document back.
	doc, err := admin.GetDocument("doc1.rdf")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Resources) != 2 {
		t.Errorf("fetched document has %d resources", len(doc.Resources))
	}

	// Engine stats over the wire.
	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DocumentsRegistered != 2 {
		t.Errorf("stats: DocumentsRegistered = %d", st.DocumentsRegistered)
	}

	// Deletion propagates over the wire.
	if err := admin.DeleteDocument("doc2.rdf"); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return !cached(t, node.Repository(), "doc2.rdf#host") }) {
		t.Fatal("deletion push did not arrive")
	}

	// Remove subscription through the application client.
	if err := app.RemoveSubscription(subID); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return node.Repository().Len() == 0 }) {
		t.Errorf("cache not empty after unsubscribe: %d", node.Repository().Len())
	}

	// Unknown request kinds produce errors, not hangs.
	if _, err := app.Query(`this is not a query`); err == nil {
		t.Error("malformed query accepted over the wire")
	}

	// Local metadata over the wire.
	local := rdf.NewDocument("private.rdf")
	r := local.NewResource("x", "ServerInformation")
	r.Add("memory", rdf.Lit("1"))
	if err := app.RegisterLocalDocument(local); err != nil {
		t.Fatal(err)
	}
	cached, err := app.Resources("ServerInformation")
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != 1 {
		t.Errorf("local registration over wire: %v", cached)
	}
}

// TestAnswersCrossWireBinary: over TCP, an LMR query, an LMR resource
// listing and an MDP browse return exactly what the same calls return in
// process, now that their answers travel as binary resources frames.
// The answers cover set-valued properties in canonical order, references,
// an empty answer, and a literal that needs escaping in XML or JSON.
func TestAnswersCrossWireBinary(t *testing.T) {
	schema := testSchema()
	schema.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "keyword", Type: rdf.TypeString, SetValued: true})
	mdp, err := provider.New("mdp1", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	mdpAddr, err := mdp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mdpClient, err := client.DialMDP(mdpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mdpClient.Close()
	node, err := lmr.New("lmr1", schema, mdpClient)
	if err != nil {
		t.Fatal(err)
	}
	lmrAddr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const odd = `a<b>&"c" Größe 東京`
	for i := 1; i <= 3; i++ {
		doc := providerDoc(i, 64*i)
		host := doc.Resources[0]
		// Set values out of canonical order; the stores rebuild them in it.
		host.Add("keyword", rdf.Lit("zeta"))
		host.Add("keyword", rdf.Lit(odd))
		host.Add("keyword", rdf.Lit("alpha"))
		if err := mdp.RegisterDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.AddSubscription(`search CycleProvider c register c where c.serverInformation.memory > 64`); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return cached(t, node.Repository(), "doc3.rdf#host") }) {
		t.Fatal("the subscription's fill did not arrive")
	}
	app, err := client.DialLMR(lmrAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	admin, err := client.DialMDP(mdpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	same := func(what string, wire, inproc []*rdf.Resource, werr, ierr error) {
		t.Helper()
		if werr != nil || ierr != nil {
			t.Fatalf("%s: wire error %v, in-process error %v", what, werr, ierr)
		}
		if len(wire) != len(inproc) {
			t.Fatalf("%s: %d resources over the wire, %d in process", what, len(wire), len(inproc))
		}
		for i := range wire {
			if !reflect.DeepEqual(wire[i], inproc[i]) {
				t.Errorf("%s: resource %d over the wire %+v, in process %+v", what, i, wire[i], inproc[i])
			}
		}
	}
	queries := map[string]int{
		`search CycleProvider c register c`:                                        2,
		`search CycleProvider c register c where c.keyword ? contains 'Größe'`:     2,
		`search ServerInformation i register i`:                                    2,
		`search CycleProvider c register c where c.serverHost contains 'no-match'`: 0,
	}
	for q, n := range queries {
		wire, werr := app.Query(q)
		inproc, ierr := node.Query(q)
		same(q, wire, inproc, werr, ierr)
		if len(wire) != n {
			t.Errorf("%s: %d resources, want %d", q, len(wire), n)
		}
	}
	for _, class := range []string{"", "CycleProvider", "NoSuchClass"} {
		wire, werr := app.Resources(class)
		inproc, ierr := node.Resources(class)
		same("resources "+class, wire, inproc, werr, ierr)
	}
	for _, b := range [][2]string{{"CycleProvider", ""}, {"CycleProvider", "host02"}, {"ServerInformation", ""}, {"CycleProvider", "no-match"}} {
		wire, werr := admin.Browse(b[0], b[1])
		inproc, ierr := mdp.Browse(b[0], b[1])
		same(fmt.Sprintf("browse %v", b), wire, inproc, werr, ierr)
	}

	// The set-valued property arrives whole, in the canonical order both
	// tiers agree on, with the odd literal's bytes intact.
	rs, err := admin.Browse("CycleProvider", "host01")
	if err != nil || len(rs) != 1 {
		t.Fatalf("browse host01: %v, %v", rs, err)
	}
	var keywords []string
	for _, v := range rs[0].GetAll("keyword") {
		keywords = append(keywords, v.Literal)
	}
	if want := []string{odd, "alpha", "zeta"}; !slices.Equal(keywords, want) {
		t.Errorf("keywords over the wire %q, want %q", keywords, want)
	}
	if v, ok := rs[0].Get("serverInformation"); !ok || v.Kind != rdf.ResourceRef || v.Ref != "doc1.rdf#info" {
		t.Errorf("reference over the wire: %+v", v)
	}
}

// TestSubscribeFillCrossesWireOnce: over TCP, a subscribe whose initial
// fill is not empty delivers that fill exactly once, as one ordered push on
// the subscriber's attached connection; the response carries only the id.
func TestSubscribeFillCrossesWireOnce(t *testing.T) {
	mdp, err := provider.New("mdp1", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	addr, err := mdp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i, memory := range []int{128, 256} {
		if err := mdp.RegisterDocument(providerDoc(i+1, memory)); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := client.DialMDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var mu sync.Mutex
	var pushes []*core.Changeset
	if err := conn.Attach("lmr1", func(_ uint64, _ bool, cs *core.Changeset) error {
		mu.Lock()
		defer mu.Unlock()
		pushes = append(pushes, cs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	subID, err := conn.Subscribe("lmr1", `search CycleProvider c register c where c.serverInformation.memory > 64`)
	if err != nil {
		t.Fatal(err)
	}
	// A later round trip on the same connection: every push the MDP sent
	// for the subscribe precedes its response.
	if _, err := conn.Stats(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pushes) != 1 {
		t.Fatalf("the subscribe delivered %d pushes, want 1", len(pushes))
	}
	var got []string
	for _, up := range pushes[0].Upserts {
		if len(up.SubIDs) != 1 || up.SubIDs[0] != subID {
			t.Errorf("upsert %s credits %v, want [%d]", up.Resource.URIRef, up.SubIDs, subID)
		}
		got = append(got, up.Resource.URIRef)
	}
	sort.Strings(got)
	if want := []string{"doc1.rdf#host", "doc2.rdf#host"}; !slices.Equal(got, want) {
		t.Errorf("the fill push upserts %v, want %v", got, want)
	}
}

// TestReconnectReplaysMissedPublishes: an LMR whose wire connection to a
// provider made by provider.New drops misses a registration published while
// it is away; Reconnect resumes from its cursor and the provider replays
// that publish from its changelog. Closing the provider then removes the
// private directory New made for it.
func TestReconnectReplaysMissedPublishes(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	schema := testSchema()
	mdp, err := provider.New("mdp1", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdp.Close() })
	addr, err := mdp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialMDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	node, err := lmr.New("lmr1", schema, conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(`search CycleProvider c register c`); err != nil {
		t.Fatal(err)
	}
	if err := mdp.RegisterDocument(providerDoc(1, 128)); err != nil {
		t.Fatal(err)
	}
	// The host and its strongly referenced info.
	if !eventually(func() bool { return node.Repository().Len() == 2 }) {
		t.Fatalf("cache holds %d resources before the drop, want 2", node.Repository().Len())
	}

	conn.Close()
	if err := mdp.RegisterDocument(providerDoc(2, 256)); err != nil {
		t.Fatal(err)
	}
	conn2, err := client.DialMDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := node.Reconnect(conn2); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return node.Repository().Len() == 4 }) {
		t.Fatalf("cache holds %d resources after reconnecting, want 4", node.Repository().Len())
	}
	if !cached(t, node.Repository(), "doc2.rdf#host") {
		t.Fatal("the document registered while the LMR was away is not cached")
	}

	if err := mdp.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("closed provider left %v in its temporary directory", left)
	}
}

func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// cached reports whether the repository holds uri, failing the test when
// the lookup itself fails.
func cached(t *testing.T, r *repository.Repository, uri string) bool {
	t.Helper()
	_, ok, err := r.Get(uri)
	if err != nil {
		t.Fatalf("get %s: %v", uri, err)
	}
	return ok
}
