package replica

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

func testSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	return s
}

func testDoc(i int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("d%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").Add("serverPort", rdf.Lit("80"))
	return doc
}

const testRule = `search CycleProvider c register c where c.serverPort > 0`

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func startPrimary(t *testing.T, dir string) (*provider.Provider, string) {
	t.Helper()
	p, err := provider.OpenDurable("primary", testSchema(), dir, provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return p, addr
}

func startFollower(t *testing.T, dir, primary, name string) (*provider.Provider, *Follower) {
	t.Helper()
	p, err := provider.OpenDurable(name, testSchema(), dir, provider.DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := Start(p, Options{
		Name:        name,
		Primary:     primary,
		AckInterval: 10 * time.Millisecond,
		Client:      client.Config{Heartbeat: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, fol
}

// TestFollowerStreamsAndServes: a follower converges to the primary over
// the wire, serves the read path locally (deliveries to subscribers
// attached at the replica), proxies writes, and acknowledges its durable
// prefix into the primary's follower stats.
func TestFollowerStreamsAndServes(t *testing.T) {
	primary, addr := startPrimary(t, t.TempDir())
	defer primary.Close()
	if _, err := primary.Subscribe("lmr", testRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := primary.RegisterDocument(testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	rp, fol := startFollower(t, t.TempDir(), addr, "r1")
	defer rp.Close()
	defer fol.Close()

	var pushes int
	var dropped []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	rp.Attach("lmr", func(seq uint64, reset bool, cs *core.Changeset) error {
		<-mu
		pushes++
		dropped = append(dropped, cs.ForcedDeletes...)
		mu <- struct{}{}
		return nil
	})

	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})
	if got, want := rp.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}

	// Live stream: a new registration at the primary reaches the replica's
	// engine and its locally attached subscriber.
	if err := primary.RegisterDocument(testDoc(10)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "live record", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})
	<-mu
	got := pushes
	mu <- struct{}{}
	if got == 0 {
		t.Error("replica-attached subscriber received no deliveries")
	}
	if _, err := rp.GetDocument("d10.rdf"); err != nil {
		t.Errorf("replica does not store the streamed document: %v", err)
	}

	// A delete at the primary propagates the same way: the replica drops the
	// document and tells its attached subscriber to.
	if err := primary.DeleteDocument("d10.rdf"); err != nil {
		t.Fatal(err)
	}
	var gone []string
	waitUntil(t, 5*time.Second, "streamed delete", func() bool {
		<-mu
		gone = append([]string(nil), dropped...)
		mu <- struct{}{}
		return len(gone) > 0 && rp.LogSeq() == primary.LogSeq()
	})
	if _, err := rp.GetDocument("d10.rdf"); err == nil {
		t.Error("deleted document still stored at the replica")
	}
	if len(gone) != 1 || gone[0] != "d10.rdf#cp" {
		t.Errorf("replica-attached subscriber was told to drop %v, want [d10.rdf#cp]", gone)
	}

	// Writes against the replica proxy to the primary and replicate back.
	if err := rp.RegisterDocument(testDoc(20)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "proxied write round trip", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})
	if got, want := rp.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("after proxied write: replica resources = %d, want %d", got, want)
	}

	// Acks flow: the primary sees the follower connected with bounded lag.
	waitUntil(t, 5*time.Second, "follower ack", func() bool {
		fds := primary.Followers()
		return len(fds) == 1 && fds[0].Connected && fds[0].AckedSeq == primary.LogSeq()
	})
	if fol.Bootstraps() != 0 {
		t.Errorf("bootstraps = %d, want 0 (tail met the retained log)", fol.Bootstraps())
	}
}

// TestFollowerBootstrapsFromSnapshot: a follower whose position was
// truncated away receives a chunked snapshot, installs it, and streams the
// tail from there.
func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	// Small segments so Compact can actually truncate (whole non-active
	// segments only), leaving the retained log starting past seq 1.
	primary, err := provider.OpenDurable("primary", testSchema(), t.TempDir(),
		provider.DurableOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	addr, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Subscribe("lmr", testRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := primary.RegisterDocument(testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Ack everything and compact so the retained log starts past seq 1:
	// a fresh follower (tail 0) must bootstrap.
	if err := primary.Ack("lmr", primary.LogSeq()); err != nil {
		t.Fatal(err)
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if oldest := primary.LogSeq(); oldest == 0 {
		t.Fatal("empty primary log")
	}

	rp, fol := startFollower(t, t.TempDir(), addr, "r1")
	defer rp.Close()
	defer fol.Close()

	waitUntil(t, 5*time.Second, "bootstrap + catch-up", func() bool {
		return fol.Bootstraps() == 1 && rp.LogSeq() == primary.LogSeq()
	})
	if got, want := rp.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
	subs, err := rp.Engine().Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Errorf("replica subscriptions = %+v", subs)
	}

	// The stream continues past the snapshot.
	if err := primary.RegisterDocument(testDoc(50)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "post-bootstrap stream", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})
}

// TestFollowerReconnectsAfterPrimaryRestart: the follower survives a
// primary restart, resuming from its own tail without re-bootstrapping.
func TestFollowerReconnectsAfterPrimaryRestart(t *testing.T) {
	primaryDir := t.TempDir()
	primary, addr := startPrimary(t, primaryDir)
	if _, err := primary.Subscribe("lmr", testRule); err != nil {
		t.Fatal(err)
	}
	if err := primary.RegisterDocument(testDoc(0)); err != nil {
		t.Fatal(err)
	}

	rp, fol := startFollower(t, t.TempDir(), addr, "r1")
	defer rp.Close()
	defer fol.Close()
	waitUntil(t, 5*time.Second, "initial catch-up", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "stream loss detection", func() bool {
		return !fol.Connected()
	})

	primary2, err := provider.OpenDurable("primary", testSchema(), primaryDir, provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary2.Close()
	if _, err := primary2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	if err := primary2.RegisterDocument(testDoc(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "reconnect + catch-up", func() bool {
		return fol.Connected() && rp.LogSeq() == primary2.LogSeq()
	})
	if got, want := rp.Engine().ResourceCount(), primary2.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
}

// TestFollowerMetrics: the follower's metric families render with live
// values.
func TestFollowerMetrics(t *testing.T) {
	primary, addr := startPrimary(t, t.TempDir())
	defer primary.Close()
	if err := primary.RegisterDocument(testDoc(0)); err != nil {
		t.Fatal(err)
	}
	rp, fol := startFollower(t, t.TempDir(), addr, "r1")
	defer rp.Close()
	defer fol.Close()
	reg := metrics.NewRegistry()
	fol.EnableMetrics(reg)
	waitUntil(t, 5*time.Second, "catch-up", func() bool {
		return rp.LogSeq() == primary.LogSeq() && fol.AckedSeq() == primary.LogSeq()
	})
	text := reg.Text()
	for _, want := range []string{
		"mdv_replica_connected 1",
		fmt.Sprintf("mdv_replica_applied_seq %d", primary.LogSeq()),
		fmt.Sprintf("mdv_replica_acked_seq %d", primary.LogSeq()),
		"mdv_replica_bootstraps_total 0",
		"mdv_replica_lag_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q", want)
		}
	}
}
