package provider

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/wire"
)

// collector gathers pushed changesets for one subscriber.
type collector struct {
	mu     sync.Mutex
	pushes []push
}

type push struct {
	seq   uint64
	reset bool
	cs    *core.Changeset
}

func (c *collector) apply(seq uint64, reset bool, cs *core.Changeset) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes = append(c.pushes, push{seq: seq, reset: reset, cs: cs})
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pushes)
}

func (c *collector) last() push {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushes[len(c.pushes)-1]
}

const durRule = `search CycleProvider c register c where c.serverPort > 0`

// TestDurableCrashRecovery: operations acknowledged by a durable provider
// survive abandoning the provider without any shutdown path (the changelog
// was fsynced before each acknowledgment, so this models kill -9).
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subID, err := p.Subscribe("lmr", durRule)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DeleteDocument("b0.rdf"); err != nil {
		t.Fatal(err)
	}
	wantResources := p.Engine().ResourceCount()
	// No Close, no snapshot: the provider is simply abandoned.

	p2, stats, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if stats.SnapshotSeq != 0 {
		t.Errorf("SnapshotSeq = %d, want 0 (no snapshot was written)", stats.SnapshotSeq)
	}
	if stats.Replayed != 7 { // subscribe + 5 registers + delete
		t.Errorf("Replayed = %d, want 7", stats.Replayed)
	}
	if got := p2.Engine().ResourceCount(); got != wantResources {
		t.Errorf("resources after recovery = %d, want %d", got, wantResources)
	}
	subs, err := p2.Engine().Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Subscriber != "lmr" || subs[0].ID != subID {
		t.Errorf("subscriptions after recovery = %+v, want id %d for lmr", subs, subID)
	}
	// The recovered provider keeps publishing on the replayed subscription.
	var c collector
	p2.Attach("lmr", c.apply)
	if err := p2.RegisterDocument(testDoc(100, 80)); err != nil {
		t.Fatal(err)
	}
	if c.count() != 1 {
		t.Errorf("pushes after recovery = %d, want 1", c.count())
	}
}

// TestDurableSnapshotAndTailReplay: Compact writes a snapshot covering the
// log; a later recovery loads it and replays only the tail past it.
func TestDurableSnapshotAndTailReplay(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	snapSeq := p.LogSeq() // Compact's snapshot covers the tail as of here
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ { // tail past the snapshot
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Engine().ResourceCount()

	p2, stats, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if stats.SnapshotSeq != snapSeq {
		t.Errorf("SnapshotSeq = %d, want %d", stats.SnapshotSeq, snapSeq)
	}
	if stats.Replayed != 2 {
		t.Errorf("Replayed = %d, want 2 (tail only)", stats.Replayed)
	}
	if got := p2.Engine().ResourceCount(); got != want {
		t.Errorf("resources = %d, want %d", got, want)
	}
}

// TestDurableTruncation: segments below the snapshot and below every live
// subscriber's ack are removed; a subscriber that never acknowledges pins
// the whole log.
func TestDurableTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every operation rotates.
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	// Never acked: Compact must keep the log intact from the start.
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := p.dur.log.OldestSeq(); got != 1 {
		t.Errorf("OldestSeq after unacked compact = %d, want 1", got)
	}
	// Acknowledge everything; now only the active segment may remain.
	if err := p.Ack("lmr", p.LogSeq()); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := p.dur.log.OldestSeq(); got <= 1 {
		t.Errorf("OldestSeq after acked compact = %d, want > 1", got)
	}
}

// TestResumeReplaysMissedChangesets: a subscriber that was detached while
// operations were published catches up via Resume with exactly the pub
// records past its cursor, in order.
func TestResumeReplaysMissedChangesets(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var c collector
	p.Attach("lmr", c.apply)
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDocument(testDoc(0, 80)); err != nil {
		t.Fatal(err)
	}
	cursor := c.last().seq
	p.Detach("lmr")

	// Published while detached.
	for i := 1; i < 4; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}

	var c2 collector
	p.Attach("lmr", c2.apply)
	latest, err := p.Resume("lmr", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if latest != p.LogSeq() {
		t.Errorf("latest = %d, want %d", latest, p.LogSeq())
	}
	if c2.count() != 3 {
		t.Fatalf("resumed pushes = %d, want 3", c2.count())
	}
	var prev uint64
	for _, ps := range c2.pushes {
		if ps.reset {
			t.Error("unexpected reset push during gap-free resume")
		}
		if ps.seq <= prev || ps.seq <= cursor {
			t.Errorf("push sequence %d out of order (prev %d, cursor %d)", ps.seq, prev, cursor)
		}
		prev = ps.seq
	}
	// Those pushes were replayed from group records: a single-member group
	// writes a binary pub_group like any other, never a JSON publish record
	// (parseRecord reads the pre-group pub kind as a pub_group, so the raw
	// payload is what tells them apart).
	var groupRecs int
	err = p.dur.log.Replay(1, func(seq uint64, payload []byte) error {
		rec, err := parseRecord(payload)
		if err != nil {
			return err
		}
		if rec.Kind == recPubGroup {
			groupRecs++
			if payload[0] != pubGroupTag {
				t.Errorf("publish record %d is JSON (%.20q), want the binary pub_group", seq, payload)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if groupRecs < 4 {
		t.Errorf("log holds %d pub_group records, want one per publish (at least 4)", groupRecs)
	}

	// A second resume from the new cursor is a no-op.
	var c3 collector
	p.Detach("lmr")
	p.Attach("lmr", c3.apply)
	if _, err := p.Resume("lmr", latest); err != nil {
		t.Fatal(err)
	}
	if c3.count() != 0 {
		t.Errorf("pushes after current resume = %d, want 0", c3.count())
	}
}

// TestResumeReplaysMixedRecordFormats: a log written by an older provider
// holds JSON pub_group records; the upgraded provider appends binary ones
// after them. A Resume from the start replays both kinds, in sequence
// order, with their changesets intact.
func TestResumeReplaysMixedRecordFormats(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var live collector
	p.Attach("lmr", live.apply)
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	type want struct {
		seq uint64
		cs  *core.Changeset
	}
	var wants []want
	legacy := []*core.Changeset{
		{Upserts: []core.Upsert{{Resource: testDoc(90, 80).Resources[0], SubIDs: []int64{1}}}},
		{
			Removals:      []core.Removal{{URIRef: "b90.rdf#cp", SubID: 1}},
			MemberCredits: map[string][]int64{"lmr": {1}, "other": nil},
		},
	}
	p.lockPub()
	for _, cs := range legacy {
		payload, err := json.Marshal(&logRecord{Kind: recPubGroup, Subscribers: []string{"lmr", "other"}, Changeset: cs})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := p.dur.log.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{seq, cs})
	}
	p.unlockPub()
	for i := 0; i < 3; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if live.count() != 3 {
		t.Fatalf("live pushes = %d, want 3", live.count())
	}
	for _, ps := range live.pushes {
		wants = append(wants, want{ps.seq, ps.cs})
	}

	var replay collector
	p.Detach("lmr")
	p.Attach("lmr", replay.apply)
	if _, err := p.Resume("lmr", 0); err != nil {
		t.Fatal(err)
	}
	if replay.count() != len(wants) {
		t.Fatalf("replayed %d pushes, want %d (2 JSON records, then 3 binary)", replay.count(), len(wants))
	}
	for i, w := range wants {
		got := replay.pushes[i]
		if got.seq != w.seq || got.reset {
			t.Errorf("push %d: seq %d (reset %v), want seq %d", i, got.seq, got.reset, w.seq)
		}
		if !bytes.Equal(core.AppendChangeset(nil, got.cs), core.AppendChangeset(nil, w.cs)) {
			t.Errorf("push %d (seq %d): replayed changeset %+v, want %+v", i, w.seq, got.cs, w.cs)
		}
	}
}

// TestResumeFallsBackToReset: when the changelog cannot prove a gap-free
// replay (truncated past the cursor, or the cursor is ahead of the log),
// Resume delivers one full-state reset changeset.
func TestResumeFallsBackToReset(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Ack("lmr", p.LogSeq()); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil { // truncates: seq 1 is gone
		t.Fatal(err)
	}
	if p.dur.log.OldestSeq() <= 1 {
		t.Skip("truncation did not advance; cannot exercise the reset path")
	}

	var c collector
	p.Attach("lmr", c.apply)
	latest, err := p.Resume("lmr", 0) // cursor long gone
	if err != nil {
		t.Fatal(err)
	}
	if c.count() != 1 {
		t.Fatalf("pushes = %d, want 1 reset", c.count())
	}
	ps := c.last()
	if !ps.reset || ps.seq != latest {
		t.Errorf("push = {seq %d, reset %v}, want {seq %d, reset true}", ps.seq, ps.reset, latest)
	}
	// The reset carries the full match set: all 8 matching resources.
	if got := len(ps.cs.Upserts); got != 8 {
		t.Errorf("reset upserts = %d, want 8", got)
	}

	// Cursor ahead of the log (provider lost unsynced tail in a crash, or
	// the directory was swapped): also a reset.
	var c2 collector
	p.Detach("lmr")
	p.Attach("lmr", c2.apply)
	if _, err := p.Resume("lmr", p.LogSeq()+1000); err != nil {
		t.Fatal(err)
	}
	if c2.count() != 1 || !c2.last().reset {
		t.Errorf("resume from future cursor: pushes = %+v, want one reset", c2.count())
	}
}

// TestDurableUnsubscribeReplay: an unsubscribe is logged and survives
// recovery; the recovered engine no longer publishes to the subscriber.
func TestDurableUnsubscribeReplay(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subID, err := p.Subscribe("lmr", durRule)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close.
	p2, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	subs, err := p2.Engine().Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("subscriptions after recovery = %+v, want none", subs)
	}
}

// TestDurableSyncPolicies: the provider acknowledges operations correctly
// under each changelog durability policy.
func TestDurableSyncPolicies(t *testing.T) {
	for _, sync := range []changelog.SyncPolicy{changelog.SyncGroup, changelog.SyncAlways, changelog.SyncNone} {
		t.Run(fmt.Sprint(sync), func(t *testing.T) {
			dir := t.TempDir()
			p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{Sync: sync})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p2, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{Sync: sync})
			if err != nil {
				t.Fatal(err)
			}
			if got := p2.Engine().ResourceCount(); got != 3 {
				t.Errorf("resources = %d, want 3", got)
			}
			p2.Close()
		})
	}
}

// chopLastRecord truncates the last record off the newest WAL segment,
// simulating a tail that was buffered but never reached the disk before a
// crash (ack records are appended without awaiting durability).
func chopLastRecord(t *testing.T, walDir string) {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, filepath.Join(walDir, e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	buf, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	// A freshly rotated tail segment can be empty; the record to chop is
	// then in the previous segment (the empty file is removed, as a crash
	// before any append would leave nothing to recover from it either).
	for len(buf) == 0 && len(segs) > 1 {
		if err := os.Remove(tail); err != nil {
			t.Fatal(err)
		}
		segs = segs[:len(segs)-1]
		tail = segs[len(segs)-1]
		if buf, err = os.ReadFile(tail); err != nil {
			t.Fatal(err)
		}
	}
	// Record layout: [4B len][4B crc][8B seq][payload], len = 8 + payload.
	var off, last int64
	for off < int64(len(buf)) {
		recLen := int64(binary.BigEndian.Uint32(buf[off : off+4]))
		last = off
		off += 8 + recLen
	}
	if off != int64(len(buf)) {
		t.Fatalf("unexpected segment layout (size %d, walked to %d)", len(buf), off)
	}
	// last == 0 means a single-record segment: truncating to zero leaves an
	// empty segment file, exactly what a crash before the record hit the
	// disk leaves behind.
	if err := os.Truncate(tail, last); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAheadOfLostTail: a snapshot can record a sequence whose log
// record never became durable (an async ack buffered at crash time). After
// recovery the log must not hand the lost sequence numbers out again —
// otherwise the next acknowledged operation lands at-or-below the snapshot
// sequence and a second recovery silently skips it.
func TestSnapshotAheadOfLostTail(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDocument(testDoc(0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := p.Ack("lmr", p.LogSeq()); err != nil { // the async ack record
		t.Fatal(err)
	}
	snapSeq := p.LogSeq()
	if err := p.Compact(); err != nil { // snapshot covers the ack's sequence
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash: the ack record had been buffered but never fsynced.
	chopLastRecord(t, filepath.Join(dir, "wal"))

	p2, stats, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq != snapSeq {
		t.Fatalf("SnapshotSeq = %d, want %d", stats.SnapshotSeq, snapSeq)
	}
	if got := p2.LogSeq(); got < snapSeq {
		t.Errorf("LogSeq after recovery = %d, below snapshot seq %d: lost sequences can be reused", got, snapSeq)
	}
	// An acknowledged operation in the danger window, then a second crash
	// (abandon without snapshot).
	if err := p2.RegisterDocument(testDoc(1, 80)); err != nil {
		t.Fatal(err)
	}
	want := p2.Engine().ResourceCount()

	p3, _, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := p3.Engine().ResourceCount(); got != want {
		t.Errorf("resources after second recovery = %d, want %d (acknowledged registration lost)", got, want)
	}
}

// TestLostDeliveredTailForcesReset: pushes reach subscribers before their
// group-commit fsync returns, so a crash can swallow the log records behind
// sequences an LMR already applied. Recovery must keep those sequence
// numbers out of circulation and Resume must reset a cursor inside the lost
// range — otherwise the subscriber keeps phantom state from operations the
// provider no longer has, and skips live pushes in the reused range as
// duplicates.
func TestLostDeliveredTailForcesReset(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := repository.New("lmr", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	p.Attach("lmr", repo.ApplyPush)
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDocument(testDoc(0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDocument(testDoc(1, 80)); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 2 {
		t.Fatalf("cache = %d resources before crash, want 2", repo.Len())
	}
	cursor := repo.LastSeq()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash: the second registration's op and pub records had already been
	// pushed to the subscriber but never reached the disk.
	chopLastRecord(t, filepath.Join(dir, "wal"))
	chopLastRecord(t, filepath.Join(dir, "wal"))

	p2, stats, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if stats.Replayed != 2 { // subscribe + first register survived
		t.Errorf("Replayed = %d, want 2", stats.Replayed)
	}
	// The delivered sequence numbers must not be handed out again.
	if got := p2.LogSeq(); got < cursor {
		t.Errorf("LogSeq after recovery = %d, below delivered cursor %d: lost sequences can be reused", got, cursor)
	}
	p2.Attach("lmr", repo.ApplyPush)
	latest, err := p2.Resume("lmr", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if got := repo.Stats().Resets; got != 1 {
		t.Fatalf("Resets after resume from lost cursor = %d, want 1", got)
	}
	if repo.LastSeq() != latest {
		t.Errorf("cursor after reset = %d, want %d", repo.LastSeq(), latest)
	}
	if cached(t, repo, "b1.rdf#cp") {
		t.Error("phantom resource from the crash-lost registration survived the reset")
	}
	if !cached(t, repo, "b0.rdf#cp") {
		t.Error("surviving registration missing from the reset fill")
	}
	// Live pushes after the reset must apply: the cursor was rebased and
	// the sequences are fresh.
	if err := p2.RegisterDocument(testDoc(2, 80)); err != nil {
		t.Fatal(err)
	}
	if !cached(t, repo, "b2.rdf#cp") {
		t.Error("live push after reset was skipped as a duplicate")
	}
	// Differential: the cache now equals that of a never-disconnected LMR
	// (the surviving and the new registration, nothing else).
	if repo.Len() != 2 {
		t.Errorf("cache = %d resources after convergence, want 2", repo.Len())
	}
	if got := repo.Stats().DuplicatesSkipped; got != 0 {
		t.Errorf("DuplicatesSkipped = %d, want 0", got)
	}
}

// TestRecoverRefusesLogTruncatedPastSnapshot: when the retained log starts
// past the snapshot's coverage (a stale snapshot resurfaced after the
// segments covering it were truncated), the operations in between are
// unrecoverably gone; recovery must fail loudly instead of silently
// skipping them.
func TestRecoverRefusesLogTruncatedPastSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every operation rotates and truncation bites.
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	staleSnap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Compact(); err != nil { // truncates the segments the stale snapshot depends on
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash-resurfaced stale snapshot.
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), staleSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
	if err == nil {
		t.Fatal("recovery accepted a log truncated past the snapshot (operations silently lost)")
	}
	if !strings.Contains(err.Error(), "changelog starts at") {
		t.Errorf("unexpected recovery error: %v", err)
	}
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

// TestWireRegisterLogsRequestXML: a register request's durable record
// carries the RDF/XML the request arrived with, byte for byte, rather than
// a re-serialization of the parsed documents, and recovery rebuilds the
// same document from it.
func TestWireRegisterLogsRequestXML(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `<?xml version="1.0"?>
<!-- as the client wrote it -->
<rdf:RDF xmlns:rdf="` + rdf.RDFNamespace + `"><CycleProvider rdf:ID="cp"><serverPort>8080</serverPort></CycleProvider></rdf:RDF>`
	body, err := json.Marshal(wire.RegisterDocumentsRequest{Docs: []wire.Doc{{URI: "w.rdf", XML: src}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.handle(nil, wire.KindRegisterDocuments, body); err != nil {
		t.Fatal(err)
	}
	var logged []wire.Doc
	err = p.dur.log.Replay(1, func(seq uint64, payload []byte) error {
		rec, err := parseRecord(payload)
		if err == nil && rec.Kind == recRegister {
			logged = append(logged, rec.Docs...)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || logged[0].URI != "w.rdf" || logged[0].XML != src {
		t.Fatalf("logged register docs %+v, want the request's XML", logged)
	}
	want, err := p.Engine().StoredDocument("w.rdf")
	if err != nil {
		t.Fatal(err)
	}

	p2, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.Engine().StoredDocument("w.rdf")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 1 || got.Resources[0].Fingerprint() != want.Resources[0].Fingerprint() {
		t.Errorf("recovered w.rdf %+v, want %+v", got.Resources, want.Resources)
	}
}
