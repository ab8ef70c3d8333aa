package mdv_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"mdv/mdv"
)

func durableSchema(t *testing.T) *mdv.Schema {
	t.Helper()
	schema, err := mdv.ParseSchema(strings.NewReader(schemaXML))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func hostDoc(i int) *mdv.Document {
	doc := mdv.NewDocument(fmt.Sprintf("host%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").
		Add("serverHost", mdv.Lit(fmt.Sprintf("node%d.uni-passau.de", i)))
	return doc
}

// fingerprint summarizes a repository's cached resources for differential
// comparison: URI, class, and sorted property dump of every resource.
func fingerprint(t *testing.T, node *mdv.RepositoryNode) string {
	t.Helper()
	rs, err := node.Resources("")
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(rs))
	for _, r := range rs {
		props := make([]string, 0, len(r.Props))
		for _, p := range r.Props {
			props = append(props, p.Name+"="+p.Value.String())
		}
		sort.Strings(props)
		lines = append(lines, r.URIRef+"|"+r.Class+"|"+strings.Join(props, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const hostRule = `search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`

// TestDurableResumeOverTCP is the differential acceptance test: an LMR
// that loses its provider connection mid-stream and reconnects with resume
// must converge to exactly the cache of an LMR that never disconnected.
func TestDurableResumeOverTCP(t *testing.T) {
	schema := durableSchema(t)
	prov, err := mdv.OpenDurableProvider("mdp", schema, t.TempDir(), mdv.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	addr, err := prov.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	newNode := func(name string) (*mdv.RepositoryNode, *mdv.ProviderClient) {
		t.Helper()
		pc, err := mdv.DialProvider(addr)
		if err != nil {
			t.Fatal(err)
		}
		node, err := mdv.NewRepositoryNode(name, schema, pc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.AddSubscription(hostRule); err != nil {
			t.Fatal(err)
		}
		return node, pc
	}
	steady, _ := newNode("steady")
	flaky, flakyConn := newNode("flaky")

	for i := 0; i < 4; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "initial batch at both nodes", func() bool {
		return steady.Repository().Len() == 4 && flaky.Repository().Len() == 4
	})

	// The flaky LMR loses its connection; publishing continues without it.
	flakyConn.Close()
	for i := 4; i < 8; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := prov.DeleteDocument("host1.rdf"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "steady node caught up", func() bool {
		return steady.Repository().Len() == 7
	})
	if flaky.Repository().Len() != 4 {
		t.Fatalf("flaky cache = %d resources while disconnected, want the stale 4", flaky.Repository().Len())
	}

	// Reconnect with a fresh connection: the durable provider replays the
	// missed changesets past the node's cursor.
	pc2, err := mdv.DialProvider(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	if err := flaky.Reconnect(pc2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "flaky node converged", func() bool {
		return flaky.Repository().Len() == steady.Repository().Len()
	})
	if got, want := fingerprint(t, flaky), fingerprint(t, steady); got != want {
		t.Errorf("diverged after resume:\nflaky:\n%s\nsteady:\n%s", got, want)
	}
	if flaky.Repository().Stats().Resets != 0 {
		t.Errorf("gap-free resume used %d resets, want replay only", flaky.Repository().Stats().Resets)
	}

	// Later publishes reach the reconnected node through the new channel.
	if err := prov.RegisterDocument(hostDoc(100)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-reconnect publish", func() bool {
		return cached(t, flaky.Repository(), "host100.rdf#cp")
	})
}

// TestDurableProviderRestartOverTCP is the crash acceptance test: every
// operation the provider acknowledged before being abandoned (no shutdown,
// no snapshot — the kill -9 model) survives into a recovered provider, and
// a reconnecting LMR converges on the recovered state.
func TestDurableProviderRestartOverTCP(t *testing.T) {
	schema := durableSchema(t)
	dir := t.TempDir()
	prov, err := mdv.OpenDurableProvider("mdp", schema, dir, mdv.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := prov.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := mdv.DialProvider(addr)
	if err != nil {
		t.Fatal(err)
	}
	node, err := mdv.NewRepositoryNode("lmr", schema, pc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "pre-crash publishes", func() bool {
		return node.Repository().Len() == 6
	})

	// Crash: tear down the provider with no snapshot (no Compact), so
	// recovery must come from the changelog alone. Close only frees the
	// server and file handles; every acknowledged operation was fsynced
	// before its call returned (TestDurableCrashRecovery in
	// internal/provider covers the Close-free kill -9 variant).
	prov.Close()

	prov2, stats, err := mdv.OpenDurableProviderWithStats("mdp", schema, dir, mdv.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov2.Close()
	if stats.Replayed == 0 {
		t.Fatalf("recovery stats = %+v, want replayed operations", stats)
	}
	uris, err := prov2.Engine().DocumentURIs()
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 6 {
		t.Fatalf("recovered provider has %d documents, want 6 (zero acknowledged-op loss)", len(uris))
	}
	subs, err := prov2.Engine().Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Subscriber != "lmr" {
		t.Fatalf("recovered subscriptions = %+v", subs)
	}

	addr2, err := prov2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc2, err := mdv.DialProvider(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	if err := node.Reconnect(pc2); err != nil {
		t.Fatal(err)
	}
	if err := prov2.RegisterDocument(hostDoc(50)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "reconnected node converged on recovered provider", func() bool {
		return node.Repository().Len() == 7 && cached(t, node.Repository(), "host50.rdf#cp")
	})
}
