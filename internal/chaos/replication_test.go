package chaos

import (
	"testing"
	"time"

	"mdv/internal/backoff"
	"mdv/internal/client"
	"mdv/internal/faultnet"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/replica"
	"mdv/internal/wire"
)

// replCliCfg is the fault-tolerance profile used by every replication
// chaos scenario: fast heartbeats so dead peers are declared within
// ~300ms, short backoff so reconnects land quickly.
var replCliCfg = client.Config{
	Heartbeat:    50 * time.Millisecond,
	IdleTimeout:  300 * time.Millisecond,
	WriteTimeout: 300 * time.Millisecond,
	CallTimeout:  3 * time.Second,
}

var replWireCfg = wire.Config{
	HeartbeatInterval: 50 * time.Millisecond,
	IdleTimeout:       300 * time.Millisecond,
	WriteTimeout:      300 * time.Millisecond,
	SendQueue:         64,
}

func replBackoff() backoff.Backoff {
	return backoff.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}
}

// startReplica opens a replica provider and its follower streaming from
// primaryAddr (possibly a fault proxy).
func startReplica(t *testing.T, dir, primaryAddr, name string) (*provider.Provider, *replica.Follower) {
	t.Helper()
	rp, err := provider.OpenDurable(name, chaosSchema(t), dir, provider.DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := replica.Start(rp, replica.Options{
		Name:        name,
		Primary:     primaryAddr,
		Client:      replCliCfg,
		AckInterval: 10 * time.Millisecond,
		Backoff:     replBackoff(),
	})
	if err != nil {
		rp.Close()
		t.Fatal(err)
	}
	return rp, fol
}

// TestReplicaSurvivesPartitionOverFaultnet runs the follower's stream
// through a fault proxy, blackholes it mid-stream, and verifies that the
// primary keeps publishing unblocked, the follower detects the dead
// stream within the heartbeat bound, and after the heal it reconnects on
// its own backoff and converges to the primary's exact log tail — no
// duplicated or skipped sequences (ApplyReplicated asserts contiguous
// appends, so a skip would fail the apply, and a dup would stall the
// tail below the primary's).
func TestReplicaSurvivesPartitionOverFaultnet(t *testing.T) {
	schema := chaosSchema(t)
	primary, err := provider.OpenDurable("primary", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	addr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}
	px, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	if _, err := primary.Subscribe("lmr", hostRule); err != nil {
		t.Fatal(err)
	}
	rp, fol := startReplica(t, t.TempDir(), px.Addr(), "r1")
	defer rp.Close()
	defer fol.Close()

	for i := 0; i < 3; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "replica caught up through the proxy", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})

	// Partition the stream. The primary must keep accepting writes with
	// bounded latency while its follower is dark.
	px.SetBlackhole(true)
	for i := 3; i < 8; i++ {
		start := time.Now()
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("publish %d took %v with a blackholed follower", i, d)
		}
	}
	waitUntil(t, "follower to detect the dead stream", func() bool {
		return !fol.Connected()
	})
	if rp.LogSeq() == primary.LogSeq() {
		t.Fatal("replica converged through a blackhole?")
	}

	px.SetBlackhole(false)
	waitUntil(t, "follower reconnected and converged after heal", func() bool {
		return fol.Connected() && rp.LogSeq() == primary.LogSeq()
	})
	if got, want := rp.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
	if fol.Bootstraps() != 0 {
		t.Errorf("bootstraps = %d, want 0 (resume from local tail, no snapshot)", fol.Bootstraps())
	}
}

// TestReplicaRestartResumesFromLocalTail kills and restarts the whole
// replica node (provider + follower); the restarted follower must resume
// the stream from its recovered local tail without a snapshot bootstrap
// and converge on records published while it was down.
func TestReplicaRestartResumesFromLocalTail(t *testing.T) {
	schema := chaosSchema(t)
	primary, err := provider.OpenDurable("primary", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	addr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Subscribe("lmr", hostRule); err != nil {
		t.Fatal(err)
	}

	replicaDir := t.TempDir()
	rp, fol := startReplica(t, replicaDir, addr, "r1")
	for i := 0; i < 3; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "replica caught up before restart", func() bool {
		return rp.LogSeq() == primary.LogSeq()
	})
	tail := rp.LogSeq()
	fol.Close()
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}

	// Published while the replica is down; it must pick these up on resume.
	for i := 3; i < 6; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	rp2, fol2 := startReplica(t, replicaDir, addr, "r1")
	defer rp2.Close()
	defer fol2.Close()
	if rp2.LogSeq() < tail {
		t.Fatalf("restarted replica recovered tail %d, want >= %d", rp2.LogSeq(), tail)
	}
	waitUntil(t, "restarted replica converged", func() bool {
		return rp2.LogSeq() == primary.LogSeq()
	})
	if fol2.Bootstraps() != 0 {
		t.Errorf("bootstraps = %d, want 0 (local tail met the retained log)", fol2.Bootstraps())
	}
	if got, want := rp2.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
}

// TestLMRFailsOverToReplica is the headline replication chaos scenario:
// one primary with one read replica, and an LMR whose endpoint list names
// both. The LMR's path to the primary is blackholed and then the primary
// dies outright; the reconnect supervisor must rotate to the replica
// within the backoff bound and resume the changeset stream from its
// cursor — converging byte-identical with a fault-free control node on
// the replica, with no full-state reset and no skipped or duplicated
// changesets.
func TestLMRFailsOverToReplica(t *testing.T) {
	schema := chaosSchema(t)
	primary, err := provider.OpenDurable("primary", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primaryClosed := false
	defer func() {
		if !primaryClosed {
			primary.Close()
		}
	}()
	primaryAddr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The replica streams from the primary directly; only the LMR's path
	// to the primary runs through the fault proxy.
	rp, fol := startReplica(t, t.TempDir(), primaryAddr, "r1")
	defer rp.Close()
	defer fol.Close()
	replicaAddr, err := rp.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}
	px, err := faultnet.Listen(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	// Fault-free reference: an in-process node on the replica. Its
	// subscription is a write, proxied to the (still live) primary; it must
	// be registered before any documents so every matching changeset flows
	// through the ordered replication stream.
	control, err := lmr.New("control", schema, rp)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "follower stream up (write proxy available)", func() bool {
		return fol.Connected()
	})
	if _, err := control.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}

	// The failover LMR dials through a rotating endpoint list: the
	// (proxied) primary first, the replica second.
	dialer, err := client.NewMultiDialer([]string{px.Addr(), replicaAddr}, replCliCfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := dialer.Dial()
	if err != nil {
		t.Fatal(err)
	}
	node, err := lmr.New("failover", schema, cli)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		bo := replBackoff()
		node.Supervise(stop, cli, lmr.SuperviseConfig{
			Dial: func() (lmr.ReconnectableProvider, error) {
				return dialer.Dial()
			},
			Backoff:   &bo,
			Retryable: client.IsRetryable,
		})
	}()
	defer func() { close(stop); <-supDone }()

	defer func() {
		if t.Failed() {
			t.Logf("state: node=%d control=%d rpSeq=%d folConnected=%t folBootstraps=%d",
				node.Repository().Len(), control.Repository().Len(), rp.LogSeq(),
				fol.Connected(), fol.Bootstraps())
		}
	}()

	for i := 0; i < 4; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "everyone at the initial 4 resources", func() bool {
		return node.Repository().Len() == 4 && control.Repository().Len() == 4 &&
			rp.LogSeq() == primary.LogSeq()
	})

	// Blackhole the LMR's path to the primary, then publish more: the
	// replica (direct path) keeps converging, the LMR goes stale.
	px.SetBlackhole(true)
	for i := 4; i < 8; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "replica fully converged and acked before the kill", func() bool {
		fds := primary.Followers()
		return rp.LogSeq() == primary.LogSeq() &&
			len(fds) == 1 && fds[0].AckedSeq == primary.LogSeq()
	})

	// Kill the primary. Everything the deployment still knows lives in the
	// replica's verbatim log copy now.
	primaryClosed = true
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// The supervisor must land on the replica and resume from the LMR's
	// cursor: byte-identical convergence with the control node, via replay
	// — not a full-state reset — with no sequence skipped or applied twice
	// (the repository rejects out-of-order pushes).
	want := fingerprint(t, control)
	waitUntil(t, "failover LMR converged on the replica", func() bool {
		return node.Repository().Len() == 8 && fingerprint(t, node) == want
	})
	if got := node.Repository().Stats().Resets; got != 0 {
		t.Errorf("failover used %d full-state resets, want cursor resume", got)
	}
	if control.Repository().Stats().Resets != 0 {
		t.Errorf("control node saw a full-state reset")
	}

	// The replica still answers queries — the read path never went down.
	rs, err := node.Query(`search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Errorf("query after failover returned %d resources, want 8", len(rs))
	}
}
