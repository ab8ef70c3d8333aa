package chaos

import (
	"bytes"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/faultnet"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/replica"
)

// logRecords collects a provider's retained changelog as seq -> payload.
func logRecords(t *testing.T, p *provider.Provider) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	err := p.ReplayLog(1, func(seq uint64, payload []byte) error {
		out[seq] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEpochFencedFailoverNoSplitBrain is the headline failover scenario:
// a primary dies with an UNREPLICATED tail (writes it accepted but never
// shipped), a follower is promoted into a new epoch and takes different
// writes, and then the old primary resurrects from its on-disk state —
// still believing it is the primary of the old term, still holding the
// divergent tail. The resurrected node must rejoin as a follower, repair
// its divergent tail via a forced snapshot resync (wiping the records
// that exist in no surviving history), refuse every write stamped with
// its dead term, and converge to a byte-identical changelog with the new
// primary. Meanwhile the LMR rides the failover with cursor resume only —
// zero full-state resets — and a write caught in the primary-less window
// degrades to bounded retries instead of failing.
func TestEpochFencedFailoverNoSplitBrain(t *testing.T) {
	schema := chaosSchema(t)
	pDir := t.TempDir()
	primary, err := provider.OpenDurable("primary", schema, pDir, provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primaryUp := true
	defer func() {
		if primaryUp {
			primary.Close()
		}
	}()
	primaryAddr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	r1Dir := t.TempDir()
	rp, fol := startReplica(t, r1Dir, primaryAddr, "r1")
	defer rp.Close()
	defer fol.Close()
	r1Addr, err := rp.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The LMR reaches the primary through a fault proxy (so the kill also
	// severs its delivery stream) and the replica directly.
	px, err := faultnet.Listen(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	dialer, err := client.NewMultiDialer([]string{px.Addr(), r1Addr}, replCliCfg)
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
	waitUntil(t, "follower stream up (write proxy available)", func() bool {
		return fol.Connected()
	})
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		bo := replBackoff()
		node.Supervise(stop, cli, lmr.SuperviseConfig{
			Dial:      func() (lmr.ReconnectableProvider, error) { return dialer.Dial() },
			Backoff:   &bo,
			Retryable: client.IsRetryable,
		})
	}()
	defer func() { close(stop); <-supDone }()

	for i := 0; i < 4; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "replica and LMR at the initial 4 resources", func() bool {
		return rp.LogSeq() == primary.LogSeq() && node.Repository().Len() == 4
	})

	// Sever the LMR's path, stop replication, and let the primary accept
	// writes nobody else will ever see: the divergent unreplicated tail.
	px.SetBlackhole(true)
	fol.Close()
	waitUntil(t, "replication stream torn down", func() bool { return !fol.Connected() })
	for _, i := range []int{100, 101} {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	divergentTail := primary.LogSeq()
	if divergentTail <= rp.LogSeq() {
		t.Fatalf("setup: primary tail %d not past replica %d", divergentTail, rp.LogSeq())
	}

	// Kill the primary. Its divergent tail survives on disk in pDir.
	primaryUp = false
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Primary-less window: a write against the replica finds no proxy and
	// degrades to the typed retryable error; the bounded retry loop rides
	// it out across the promotion below.
	control, err := lmr.New("control", schema, rp)
	if err != nil {
		t.Fatal(err)
	}
	degraded := make(chan error, 1)
	go func() {
		_, err := control.AddSubscription(hostRule)
		degraded <- err
	}()
	waitUntil(t, "write degraded to no-primary retries", func() bool {
		return control.DegradedWrites() > 0
	})

	// Operator promotion: the replica becomes the primary of epoch 2 and
	// its history moves on with different writes.
	epoch, err := rp.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if err := <-degraded; err != nil {
		t.Fatalf("degraded write did not land after promotion: %v", err)
	}
	for i := 4; i < 6; i++ {
		if err := rp.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Resurrect the old primary from its own state directory. It recovers
	// believing it is the primary of epoch 1, divergent tail and all.
	op, err := provider.OpenDurable("primary", schema, pDir, provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	// (Recovery reserves the delivered-watermark claim chunk, so LogSeq may
	// run past the real record tail — but never below it.)
	if op.Epoch() != 1 || op.Replica() || op.LogSeq() < divergentTail {
		t.Fatalf("resurrected state: epoch=%d replica=%t tail=%d, want 1/false/>=%d",
			op.Epoch(), op.Replica(), op.LogSeq(), divergentTail)
	}

	// Startup rejoin (what mdvd does before serving): probe the candidate
	// set; a primary of a higher term exists, so step down and follow it.
	winAddr, topo := replica.ProbeForPrimary([]string{primaryAddr, r1Addr}, replCliCfg)
	if winAddr != r1Addr || topo == nil || topo.Epoch != 2 {
		t.Fatalf("probe found %q epoch %+v, want %q at epoch 2", winAddr, topo, r1Addr)
	}
	if !op.ObserveEpoch(topo.Epoch, winAddr) {
		t.Fatal("higher-term proof did not demote the resurrected primary")
	}
	if !op.ResyncPending() {
		t.Fatal("demotion did not mark the divergent tail suspect")
	}
	opFol, err := replica.Start(op, replica.Options{
		Name:        "primary",
		Primary:     winAddr,
		Client:      replCliCfg,
		AckInterval: 10 * time.Millisecond,
		Backoff:     replBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer opFol.Close()
	opAddr, err := op.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The divergent tail repairs via a FORCED snapshot resync: the local
	// records past the snapshot are wiped, not merged.
	waitUntil(t, "old primary rejoined and converged", func() bool {
		return opFol.Connected() && !op.ResyncPending() && op.LogSeq() == rp.LogSeq()
	})
	if opFol.Bootstraps() != 1 {
		t.Errorf("bootstraps = %d, want 1 (forced resync of the suspect tail)", opFol.Bootstraps())
	}
	if op.Epoch() != 2 {
		t.Errorf("rejoined node epoch = %d, want 2", op.Epoch())
	}

	// The fence: a write stamped with the dead term is refused and counted
	// — the resurrected primary never acks a stale write.
	stale, err := client.DialMDPConfig(opAddr, replCliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.SetWriteEpoch(1)
	err = stale.RegisterDocument(hostDoc(200))
	if err == nil {
		t.Fatal("resurrected primary acknowledged a write stamped with its dead term")
	}
	if !provider.IsFenced(err) {
		t.Fatalf("stale write error %v not classified as an epoch fence", err)
	}
	if op.FencedWrites() == 0 {
		t.Error("mdv_fenced_writes_total source counter is zero after a fenced write")
	}

	// Post-repair replication is verbatim: new writes land byte-identical
	// in both retained logs, and the divergent records exist in neither.
	for i := 6; i < 8; i++ {
		if err := rp.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "rejoined follower converged on post-repair writes", func() bool {
		return op.LogSeq() == rp.LogSeq()
	})
	opLog := logRecords(t, op)
	if len(opLog) == 0 {
		t.Fatal("rejoined follower retains no log records to compare")
	}
	npLog := logRecords(t, rp)
	for seq, payload := range opLog {
		want, ok := npLog[seq]
		if !ok {
			t.Fatalf("follower retains seq %d the primary does not", seq)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("changelogs diverge at seq %d", seq)
		}
	}
	for _, eng := range []*provider.Provider{rp, op} {
		for _, host := range []string{"node100", "node101"} {
			if rs, err := eng.Browse("CycleProvider", host); err == nil && len(rs) > 0 {
				t.Errorf("divergent write %s survived into %s's history", host, eng.Name())
			}
		}
	}

	// The LMR rode the failover by cursor resume alone: all surviving
	// writes present (4 original + 2 post-promotion + 2 post-repair), the
	// divergent ones absent, zero full-state resets.
	waitUntil(t, "LMR converged across the failover", func() bool {
		return node.Repository().Len() == 8
	})
	if got := node.Repository().Stats().Resets; got != 0 {
		t.Errorf("LMR used %d full-state resets, want cursor resume only", got)
	}
	rs, err := node.Query(`search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Errorf("query after failover returned %d resources, want 8", len(rs))
	}
}

// TestAutoPromoteDeadmanElectsMostCaughtUp: with the deadman armed, killing
// the primary makes exactly one follower promote itself — the most
// caught-up one, ties broken by lowest name — and the other re-points to
// the winner and keeps replicating at the new epoch.
func TestAutoPromoteDeadmanElectsMostCaughtUp(t *testing.T) {
	schema := chaosSchema(t)
	primary, err := provider.OpenDurable("primary", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primaryUp := true
	defer func() {
		if primaryUp {
			primary.Close()
		}
	}()
	primaryAddr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Both followers must be servable before either's candidate list works,
	// so reserve their addresses by starting providers first.
	rp1, err := provider.OpenDurable("r1", schema, t.TempDir(), provider.DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rp1.Close()
	r1Addr, err := rp1.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := provider.OpenDurable("r2", schema, t.TempDir(), provider.DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rp2.Close()
	r2Addr, err := rp2.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	cands := []string{primaryAddr, r1Addr, r2Addr}
	deadman := 300 * time.Millisecond
	fol1, err := replica.Start(rp1, replica.Options{
		Name: "r1", Primaries: cands, AutoPromote: deadman,
		Client: replCliCfg, AckInterval: 10 * time.Millisecond, Backoff: replBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol1.Close()
	fol2, err := replica.Start(rp2, replica.Options{
		Name: "r2", Primaries: cands, AutoPromote: deadman,
		Client: replCliCfg, AckInterval: 10 * time.Millisecond, Backoff: replBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Close()

	if _, err := primary.Subscribe("lmr", hostRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := primary.RegisterDocument(hostDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "both followers converged", func() bool {
		return fol1.Connected() && fol2.Connected() &&
			rp1.LogSeq() == primary.LogSeq() && rp2.LogSeq() == primary.LogSeq()
	})

	// Kill the primary: no operator in sight, the deadman must fire.
	primaryUp = false
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Equal log tails, so the name tie-break elects r1 — and ONLY r1.
	waitUntil(t, "deadman promoted r1", func() bool { return fol1.Promoted() })
	if rp1.Replica() || rp1.Epoch() != 2 {
		t.Fatalf("winner state: replica=%t epoch=%d, want primary at epoch 2", rp1.Replica(), rp1.Epoch())
	}
	waitUntil(t, "r2 re-pointed to the new primary", func() bool {
		return fol2.Connected() && fol2.Primary() == r1Addr
	})
	if fol2.Promoted() || rp2.Promotions() != 0 {
		t.Fatal("both followers promoted: split brain")
	}

	// Replication continues at the new epoch.
	if err := rp1.RegisterDocument(hostDoc(3)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "r2 converged on the new primary's writes", func() bool {
		return rp2.LogSeq() == rp1.LogSeq()
	})
	if rp2.Epoch() != 2 {
		t.Errorf("surviving follower epoch = %d, want 2", rp2.Epoch())
	}
	if fol2.Bootstraps() != 0 {
		t.Errorf("surviving follower bootstrapped %d times, want 0 (clean tail resume)", fol2.Bootstraps())
	}
}
