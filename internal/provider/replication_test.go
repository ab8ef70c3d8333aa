package provider

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// shipLog feeds every primary changelog record past the replica's tail
// into ApplyReplicated, the way the follower subsystem's stream does.
func shipLog(t *testing.T, primary, replica *Provider) {
	t.Helper()
	r := primary.dur.log.NewReader(replica.LogSeq() + 1)
	defer r.Close()
	last := primary.dur.log.LastSeq()
	for replica.LogSeq() < last {
		seq, payload, err := r.Next()
		if err != nil {
			t.Fatalf("read primary log: %v", err)
		}
		if err := replica.ApplyReplicated(seq, payload, time.Now().UnixNano()); err != nil {
			t.Fatalf("apply record %d: %v", seq, err)
		}
	}
	// ApplyReplicated does not await durability; the follower's ack loop
	// batches the fsync. Stand in for it so tailing readers see the tail.
	if err := replica.dur.log.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyReplicatedMirrorsPrimary: streaming the primary's changelog
// through ApplyReplicated reproduces its engine state, its subscriptions,
// and its publishes (delivered to subscribers attached at the replica),
// and the replica's log copy is verbatim.
func TestApplyReplicatedMirrorsPrimary(t *testing.T) {
	primary, err := OpenDurable("primary", testSchema(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replicaDir := t.TempDir()
	replica, err := OpenDurable("replica", testSchema(), replicaDir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if !replica.Replica() || replica.Role() != "replica" {
		t.Fatalf("Replica() = %v, Role() = %q", replica.Replica(), replica.Role())
	}
	var c collector
	replica.Attach("lmr", c.apply)

	if _, err := primary.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := primary.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.DeleteDocument("b0.rdf"); err != nil {
		t.Fatal(err)
	}
	if err := primary.RegisterNamedRule("ports", durRule); err != nil {
		t.Fatal(err)
	}
	shipLog(t, primary, replica)

	if got, want := replica.LogSeq(), primary.LogSeq(); got != want {
		t.Errorf("replica log seq = %d, want %d", got, want)
	}
	if got, want := replica.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
	subs, err := replica.Engine().Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Subscriber != "lmr" {
		t.Errorf("replica subscriptions = %+v", subs)
	}
	// The primary published 7 changesets to lmr (initial fill is empty —
	// no docs yet — so: 5 registers + 1 delete); the replica re-delivered
	// each from the streamed publish records.
	if c.count() != 6 {
		t.Errorf("replica deliveries = %d, want 6", c.count())
	}
	// The second node stores the live documents, and the delete propagated:
	// the document is gone there and its subscriber was told to drop it.
	if _, err := replica.GetDocument("b1.rdf"); err != nil {
		t.Errorf("registered document missing at the replica: %v", err)
	}
	if _, err := replica.GetDocument("b0.rdf"); err == nil {
		t.Error("deleted document still stored at the replica")
	}
	if fd := c.last().cs.ForcedDeletes; len(fd) != 1 || fd[0] != "b0.rdf#cp" {
		t.Errorf("replica-attached subscriber's last delivery drops %v, want [b0.rdf#cp]", fd)
	}

	// The log copy is verbatim: identical records at identical sequences.
	pr := primary.dur.log.NewReader(1)
	rr := replica.dur.log.NewReader(1)
	for i := uint64(0); i < primary.LogSeq(); i++ {
		ps, pp, perr := pr.Next()
		if perr != nil {
			break
		}
		rs, rp, rerr := rr.Next()
		if rerr != nil {
			t.Fatalf("replica log ends early: %v", rerr)
		}
		if ps != rs || !bytes.Equal(pp, rp) {
			t.Fatalf("log diverges at seq %d/%d", ps, rs)
		}
		if ps == primary.LogSeq() {
			break
		}
	}
	pr.Close()
	rr.Close()

	// Duplicate records (a resumed stream overlaps) are skipped.
	dup := primary.dur.log.NewReader(1)
	seq, payload, err := dup.Next()
	dup.Close()
	if err != nil {
		t.Fatal(err)
	}
	before := replica.LogSeq()
	if err := replica.ApplyReplicated(seq, payload, 0); err != nil {
		t.Fatal(err)
	}
	if replica.LogSeq() != before {
		t.Error("duplicate record extended the replica log")
	}

	// Writes on the replica are refused without a proxy, proxied with one.
	if err := replica.RegisterDocument(testDoc(50, 80)); !errors.Is(err, ErrNotPrimary) {
		t.Errorf("replica write without proxy: err = %v, want ErrNotPrimary", err)
	}
	replica.SetWriteProxy(primary)
	if err := replica.RegisterDocument(testDoc(50, 80)); err != nil {
		t.Fatal(err)
	}
	shipLog(t, primary, replica)
	if got, want := replica.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("after proxied write: replica resources = %d, want %d", got, want)
	}

	// Restart: the replica recovers from its own log copy, appending
	// nothing, and continues from the same tail.
	tail := replica.LogSeq()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	replica2, stats, err := OpenDurableWithStats("replica", testSchema(), replicaDir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica2.Close()
	if replica2.LogSeq() != tail {
		t.Errorf("replica log seq after restart = %d, want %d (recovery must append nothing)", replica2.LogSeq(), tail)
	}
	if stats.Replayed == 0 {
		t.Error("restart replayed no operations")
	}
	if got, want := replica2.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("after restart: replica resources = %d, want %d", got, want)
	}
}

// TestApplyReplicatedPinsGaps: a sequence jump in the stream (a reserved
// range on the primary) is reserved locally so numbering stays aligned.
func TestApplyReplicatedPinsGaps(t *testing.T) {
	replica, err := OpenDurable("replica", testSchema(), t.TempDir(), DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	payload := []byte(`{"kind":"named_rule","name":"r","rule":"` + durRule + `"}`)
	if err := replica.ApplyReplicated(1, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyReplicated(10, payload, 0); err != nil {
		t.Fatal(err)
	}
	if got := replica.LogSeq(); got != 10 {
		t.Errorf("log seq = %d, want 10", got)
	}
}

// TestApplyReplicatedRefusesUnreadableRecord: a streamed record the
// replica cannot parse is refused before anything reaches its log copy —
// neither the record nor a gap reservation ahead of it — so the replica's
// next recovery does not trip over it.
func TestApplyReplicatedRefusesUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	replica, err := OpenDurable("replica", testSchema(), dir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"kind":"named_rule","name":"r","rule":"` + durRule + `"}`)
	if err := replica.ApplyReplicated(1, good, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		seq     uint64
		payload []byte
	}{
		{2, []byte("not a record")},
		{5, []byte("not a record")},              // past a gap
		{2, []byte{pubGroupTag, 1, 3, 'l', 'm'}}, // member name cut short
	} {
		if err := replica.ApplyReplicated(bad.seq, bad.payload, 0); err == nil {
			t.Errorf("ApplyReplicated(%d, %q) accepted an unreadable record", bad.seq, bad.payload)
		}
		if got := replica.LogSeq(); got != 1 {
			t.Fatalf("after refusing record %d (%q): log seq = %d, want 1", bad.seq, bad.payload, got)
		}
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable("replica", testSchema(), dir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatalf("reopen after refused records: %v", err)
	}
	defer reopened.Close()
	if got := reopened.LogSeq(); got != 1 {
		t.Errorf("reopened log seq = %d, want 1", got)
	}
}

// TestInstallSnapshotBootstrap: a shipped snapshot installs mid-life —
// engine swapped, log pinned at the coverage, attached subscribers reset —
// and the stream continues from there; a restart recovers from the
// persisted snapshot copy.
func TestInstallSnapshotBootstrap(t *testing.T) {
	primary, err := OpenDurable("primary", testSchema(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := primary.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	snapSeq := primary.LogSeq()
	var snap bytes.Buffer
	if err := writeSnapshot(&snap, snapSeq, primary.Epoch(), primary.Engine()); err != nil {
		t.Fatal(err)
	}

	replicaDir := t.TempDir()
	replica, err := OpenDurable("replica", testSchema(), replicaDir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	replica.Attach("lmr", c.apply)
	got, err := replica.InstallSnapshot(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != snapSeq {
		t.Errorf("InstallSnapshot seq = %d, want %d", got, snapSeq)
	}
	if replica.LogSeq() != snapSeq {
		t.Errorf("replica log seq = %d, want %d", replica.LogSeq(), snapSeq)
	}
	if got, want := replica.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
	if c.count() != 1 || !c.last().reset || c.last().seq != snapSeq {
		t.Errorf("attached subscriber got %d pushes, last = %+v; want one reset at seq %d", c.count(), c.last(), snapSeq)
	}

	// The stream continues past the snapshot.
	if err := primary.RegisterDocument(testDoc(10, 80)); err != nil {
		t.Fatal(err)
	}
	shipLog(t, primary, replica)
	if got, want := replica.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("post-snapshot stream: replica resources = %d, want %d", got, want)
	}
	tail := replica.LogSeq()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart recovers from the installed snapshot + the streamed tail.
	replica2, stats, err := OpenDurableWithStats("replica", testSchema(), replicaDir, DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica2.Close()
	if stats.SnapshotSeq != snapSeq {
		t.Errorf("recovered SnapshotSeq = %d, want %d", stats.SnapshotSeq, snapSeq)
	}
	if replica2.LogSeq() != tail {
		t.Errorf("replica log seq after restart = %d, want %d", replica2.LogSeq(), tail)
	}
	if got, want := replica2.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("after restart: replica resources = %d, want %d", got, want)
	}
}

// TestReplicaAckLocalOnly: acks on a replica update truncation bookkeeping
// without appending to the verbatim log copy.
func TestReplicaAckLocalOnly(t *testing.T) {
	replica, err := OpenDurable("replica", testSchema(), t.TempDir(), DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	payload := []byte(`{"kind":"named_rule","name":"r","rule":"` + durRule + `"}`)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := replica.ApplyReplicated(seq, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := replica.Ack("lmr", 3); err != nil {
		t.Fatal(err)
	}
	if got := replica.LogSeq(); got != 3 {
		t.Errorf("log seq after ack = %d, want 3 (ack must not append)", got)
	}
	if replica.dur.acked["lmr"] != 3 {
		t.Errorf("acked = %d, want 3", replica.dur.acked["lmr"])
	}
}

// TestFollowerStatsAndTruncationPinning: follower stream state shows up in
// DeliveryStats with its lag, and a connected follower's ack pins
// truncation while a disconnected one does not.
func TestFollowerStatsAndTruncationPinning(t *testing.T) {
	primary, err := OpenDurable("primary", testSchema(), t.TempDir(), DurableOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 6; i++ {
		if err := primary.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	primary.mu.Lock()
	primary.followers["r1"] = &followerState{name: "r1", connected: true, acked: 2}
	primary.mu.Unlock()

	stats := primary.DeliveryStats()
	if stats.Role != "primary" {
		t.Errorf("Role = %q, want primary", stats.Role)
	}
	if len(stats.Followers) != 1 || stats.Followers[0].Follower != "r1" {
		t.Fatalf("Followers = %+v", stats.Followers)
	}
	if fd := stats.Followers[0]; fd.AckedSeq != 2 || fd.LagSeqs != stats.LogSeq-2 || !fd.Connected {
		t.Errorf("follower delivery = %+v", fd)
	}

	// Connected at ack 2: nothing below 3 may be truncated.
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if oldest := primary.dur.log.OldestSeq(); oldest > 3 {
		t.Errorf("oldest seq = %d; connected follower at ack 2 must pin truncation", oldest)
	}

	// Disconnected followers do not pin: Compact may now truncate past it.
	primary.mu.Lock()
	primary.followers["r1"].connected = false
	primary.mu.Unlock()
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if oldest := primary.dur.log.OldestSeq(); oldest <= 2 {
		t.Errorf("oldest seq = %d after compact; disconnected follower must not pin the log", oldest)
	}
}

// TestReplicaResumeWaitsForCatchup: a subscriber ahead of a freshly
// restarted replica is answered once the stream catches up (no reset), and
// reset if it cannot within the bound.
func TestReplicaResumeWaitsForCatchup(t *testing.T) {
	primary, err := OpenDurable("primary", testSchema(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := OpenDurable("replica", testSchema(), t.TempDir(), DurableOptions{Replica: true, CatchupWait: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := primary.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := primary.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	target := primary.LogSeq()
	var c collector
	replica.Attach("lmr", c.apply)
	// The stream arrives while Resume is already waiting.
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		r := primary.dur.log.NewReader(1)
		defer r.Close()
		for replica.LogSeq() < target {
			seq, payload, err := r.Next()
			if err != nil {
				done <- err
				return
			}
			if err := replica.ApplyReplicated(seq, payload, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	latest, err := replica.Resume("lmr", target)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if latest < target {
		t.Errorf("Resume returned %d, want >= %d", latest, target)
	}
	c.mu.Lock()
	for _, p := range c.pushes {
		if p.reset {
			t.Errorf("caught-up resume delivered a reset push: %+v", p)
		}
	}
	c.mu.Unlock()

	// A cursor the stream can never reach falls back to a reset.
	latest, err = replica.Resume("lmr", target+100)
	if err != nil {
		t.Fatal(err)
	}
	if latest != replica.LogSeq() {
		t.Errorf("Resume returned %d, want log tail %d", latest, replica.LogSeq())
	}
	if c.count() == 0 || !c.last().reset {
		t.Error("unreachable cursor did not force a reset")
	}
}
