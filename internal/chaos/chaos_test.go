package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"mdv/internal/backoff"
	"mdv/internal/client"
	"mdv/internal/faultnet"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/wire"
)

const schemaXML = `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <Class rdf:ID="CycleProvider"/>
  <Property rdf:ID="p1">
    <name>serverHost</name>
    <domain rdf:resource="#CycleProvider"/>
    <range rdf:resource="http://www.w3.org/2000/01/rdf-schema#Literal"/>
  </Property>
</rdf:RDF>`

const hostRule = `search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`

func chaosSchema(t *testing.T) *rdf.Schema {
	t.Helper()
	schema, err := rdf.ParseSchema(strings.NewReader(schemaXML))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func hostDoc(i int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("host%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").
		Add("serverHost", rdf.Lit(fmt.Sprintf("node%d.uni-passau.de", i)))
	return doc
}

// bigDoc carries a padded property so a handful of changesets overwhelm
// any kernel socket buffering and force the send queue to fill.
func bigDoc(i, pad int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("big%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").
		Add("serverHost", rdf.Lit(strings.Repeat("x", pad)+fmt.Sprintf(".node%d.uni-passau.de", i)))
	return doc
}

// fingerprint summarizes a node's cached resources for differential
// comparison: URI, class, and sorted property dump of every resource.
func fingerprint(t *testing.T, node *lmr.Node) string {
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
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// subscriberStats fetches the delivery counters for one subscriber.
func subscriberStats(t *testing.T, prov *provider.Provider, name string) *wire.SubscriberDelivery {
	t.Helper()
	for _, s := range prov.DeliveryStats().Subscribers {
		if s.Subscriber == name {
			sc := s
			return &sc
		}
	}
	return nil
}

// dialNode connects an LMR node to the provider through the given proxy
// and subscribes it to the host rule.
func dialNode(t *testing.T, schema *rdf.Schema, name string, proxy *faultnet.Proxy, cfg client.Config) (*lmr.Node, *client.MDP) {
	t.Helper()
	cli, err := client.DialMDPConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	node, err := lmr.New(name, schema, cli)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	return node, cli
}

// reconnectNode emulates cmd/lmr's reconnect loop: dial a fresh client
// through the (healed) proxy with jittered backoff and swap it into the
// node, which re-attaches and resumes from its cursor.
func reconnectNode(t *testing.T, node *lmr.Node, proxy *faultnet.Proxy, cfg client.Config) *client.MDP {
	t.Helper()
	var cli *client.MDP
	b := &backoff.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}
	err := backoff.Retry(context.Background(), b, 20, client.IsRetryable, func() error {
		c, err := client.DialMDPConfig(proxy.Addr(), cfg)
		if err != nil {
			return err
		}
		if err := node.Reconnect(c); err != nil {
			c.Close()
			return err
		}
		cli = c
		return nil
	})
	if err != nil {
		t.Fatalf("reconnect %s: %v", node.Name(), err)
	}
	return cli
}

// TestBlackholedSubscriberDoesNotBlockPublishing is the headline chaos
// scenario from the failure model: one durable MDP, three LMRs behind
// individual fault proxies, and an in-process control node as the
// fault-free reference. One LMR is blackholed mid-stream; the provider
// must keep publishing with bounded latency, healthy LMRs must stay
// current, the stalled LMR must be disconnected within the heartbeat
// bound, and after the partition heals every LMR must converge to a cache
// byte-identical with the control node's.
func TestBlackholedSubscriberDoesNotBlockPublishing(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.OpenDurable("mdp", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()

	srvCfg := wire.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		IdleTimeout:       300 * time.Millisecond,
		WriteTimeout:      300 * time.Millisecond,
		SendQueue:         16,
	}
	addr, err := prov.ServeConfig("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	cliCfg := client.Config{
		Heartbeat:    50 * time.Millisecond,
		IdleTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	}

	// Fault-free reference: an in-process node sees every changeset
	// directly, with no network in between.
	control, err := lmr.New("control", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}

	names := []string{"alpha", "bravo", "charlie"}
	proxies := make(map[string]*faultnet.Proxy)
	nodes := make(map[string]*lmr.Node)
	for _, name := range names {
		px, err := faultnet.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		proxies[name] = px
		node, cli := dialNode(t, schema, name, px, cliCfg)
		defer cli.Close()
		nodes[name] = node
	}

	for i := 0; i < 4; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "all nodes at initial 4 resources", func() bool {
		for _, n := range nodes {
			if n.Repository().Len() != 4 {
				return false
			}
		}
		return control.Repository().Len() == 4
	})

	// Partition bravo: its proxy silently swallows traffic in both
	// directions, exactly like a wide-area packet blackhole.
	proxies["bravo"].SetBlackhole(true)

	// The provider must keep publishing with bounded per-publish latency —
	// bravo's dead TCP window cannot be allowed to backpressure Publish.
	for i := 4; i < 12; i++ {
		start := time.Now()
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("publish %d took %v with a blackholed subscriber, want bounded latency", i, d)
		}
	}
	if err := prov.DeleteDocument("host2.rdf"); err != nil {
		t.Fatal(err)
	}

	// Healthy subscribers stay current while bravo is dark.
	waitUntil(t, "healthy nodes current during partition", func() bool {
		return nodes["alpha"].Repository().Len() == 11 &&
			nodes["charlie"].Repository().Len() == 11 &&
			control.Repository().Len() == 11
	})
	if got := nodes["bravo"].Repository().Len(); got != 4 {
		t.Fatalf("blackholed node has %d resources, want the stale 4", got)
	}

	// The stalled subscriber must be detected and disconnected within the
	// heartbeat/idle bound, not held open indefinitely.
	waitUntil(t, "provider to disconnect the stalled subscriber", func() bool {
		s := subscriberStats(t, prov, "bravo")
		return s != nil && s.Conns == 0 && s.Disconnects >= 1
	})

	// Heal and reconnect the way cmd/lmr does: fresh dial with jittered
	// backoff, resume from the durable cursor.
	proxies["bravo"].SetBlackhole(false)
	cli := reconnectNode(t, nodes["bravo"], proxies["bravo"], cliCfg)
	defer cli.Close()

	want := fingerprint(t, control)
	waitUntil(t, "all nodes byte-identical with control after heal", func() bool {
		for _, n := range nodes {
			if fingerprint(t, n) != want {
				return false
			}
		}
		return true
	})
}

// TestQueueOverflowDisconnectAndResume stalls a subscriber while the
// provider publishes changesets far larger than kernel socket buffering,
// so the bounded send queue — not TCP — is what gives out. The provider
// must drop the subscriber (counting the drop), and the subscriber must
// converge via cursor resume after reconnecting.
func TestQueueOverflowDisconnectAndResume(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.OpenDurable("mdp", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()

	// No heartbeats and a long write timeout: the only defense left is the
	// bounded queue, which is exactly what this test exercises.
	addr, err := prov.ServeConfig("127.0.0.1:0", wire.Config{
		WriteTimeout: 10 * time.Second,
		SendQueue:    4,
	})
	if err != nil {
		t.Fatal(err)
	}

	control, err := lmr.New("control", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}

	px, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	// Generous call timeout: the resume replay after heal moves several MB
	// of changesets, and under the race detector that can be slow.
	cliCfg := client.Config{CallTimeout: 30 * time.Second}
	node, cli := dialNode(t, schema, "stalled", px, cliCfg)
	defer cli.Close()

	if err := prov.RegisterDocument(hostDoc(0)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "initial doc at subscriber", func() bool {
		return node.Repository().Len() == 1
	})

	px.SetBlackhole(true)
	const docs, pad = 32, 256 << 10
	for i := 0; i < docs; i++ {
		if err := prov.RegisterDocument(bigDoc(i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "queue overflow to disconnect the stalled subscriber", func() bool {
		s := subscriberStats(t, prov, "stalled")
		return s != nil && s.Conns == 0 && s.Dropped >= 1 && s.Disconnects >= 1
	})

	px.SetBlackhole(false)
	cli2 := reconnectNode(t, node, px, cliCfg)
	defer cli2.Close()

	waitUntil(t, "stalled subscriber converged via resume", func() bool {
		// Cheap length check first; the full fingerprint compares several
		// MB of property data and is too expensive to run every poll.
		return node.Repository().Len() == docs+1 &&
			fingerprint(t, node) == fingerprint(t, control)
	})
}

// TestMidStreamResetReconnects kills every proxied connection with a TCP
// RST mid-stream; the client must observe the failure promptly as a
// retryable error and converge after a jittered-backoff reconnect.
func TestMidStreamResetReconnects(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.OpenDurable("mdp", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	addr, err := prov.ServeConfig("127.0.0.1:0", wire.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		WriteTimeout:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	control, err := lmr.New("control", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}

	px, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cliCfg := client.Config{
		Heartbeat:    50 * time.Millisecond,
		IdleTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	}
	node, cli := dialNode(t, schema, "resetme", px, cliCfg)
	defer cli.Close()

	for i := 0; i < 3; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "subscriber at 3 resources", func() bool {
		return node.Repository().Len() == 3
	})

	px.ResetAll()
	select {
	case <-cli.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client did not observe mid-stream reset")
	}

	for i := 3; i < 6; i++ {
		if err := prov.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	cli2 := reconnectNode(t, node, px, cliCfg)
	defer cli2.Close()
	waitUntil(t, "reset subscriber converged after reconnect", func() bool {
		return fingerprint(t, node) == fingerprint(t, control)
	})
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
