package provider

import (
	"path/filepath"
	"testing"

	"mdv/internal/repository"
)

// TestWatermarkSurvivesCompaction: Compact truncates acknowledged segments —
// including, without re-establishment, the segment holding the only
// delivered-watermark record. A crash that then swallows a delivered but
// unsynced tail must still recover the claim: otherwise the lost sequence
// numbers are reissued to new operations, and the subscriber (whose cursor
// sits past them) skips the reissued live pushes as duplicates.
func TestWatermarkSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every record rotates and truncation actually removes
	// the early watermark record.
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
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
	for i := 0; i < 2; i++ {
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	claim := p.dur.claim
	if claim == 0 {
		t.Fatal("no delivered-watermark claim after publishes")
	}
	// Acknowledge everything and compact: every segment below the ack is
	// truncated, among them the one holding the original watermark record.
	if err := p.Ack("lmr", repo.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	// One more delivered registration, then crash before its records are
	// fsynced (chop the op and pub records off the tail).
	if err := p.RegisterDocument(testDoc(2, 80)); err != nil {
		t.Fatal(err)
	}
	deliveredSeq := repo.LastSeq()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	chopLastRecord(t, filepath.Join(dir, "wal"))
	chopLastRecord(t, filepath.Join(dir, "wal"))

	p2, _, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.dur.claim; got < claim {
		t.Errorf("recovered claim = %d, want >= %d (watermark record lost to compaction)", got, claim)
	}
	if got := p2.LogSeq(); got < deliveredSeq {
		t.Errorf("LogSeq after recovery = %d, below delivered seq %d: lost sequences can be reissued", got, deliveredSeq)
	}
	// The subscriber's cursor sits on the swallowed push: resume must reset.
	repo2, err := repository.New("lmr", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	p2.Attach("lmr", repo2.ApplyPush)
	if _, err := p2.Resume("lmr", deliveredSeq); err != nil {
		t.Fatal(err)
	}
	if got, want := repo2.Len(), p2.Engine().ResourceCount(); got != want {
		t.Errorf("cache after reset resume = %d resources, want %d", got, want)
	}
}

// TestWatermarkChunkBoundaryCrash: claims amortize to one fsync per
// watermarkChunk sequences, so crossing a chunk boundary writes (and fsyncs,
// before any covered push goes out) a second watermark record. A crash that
// swallows the unsynced op/pub records right after the boundary must recover
// the NEWEST claim — the reserved range never moves backwards — and the next
// generation must still remember the lost range (it is persisted, not
// recovery-local state).
func TestWatermarkChunkBoundaryCrash(t *testing.T) {
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
	// Publish until the claim advances past its first chunk (a second
	// watermark record is written at the boundary).
	if err := p.RegisterDocument(testDoc(0, 80)); err != nil {
		t.Fatal(err)
	}
	firstClaim := p.dur.claim
	if firstClaim == 0 {
		t.Fatal("no claim after first publish")
	}
	for i := 1; p.dur.claim == firstClaim; i++ {
		if i > watermarkChunk {
			t.Fatalf("claim never advanced past %d after %d registrations", firstClaim, i)
		}
		if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	secondClaim := p.dur.claim
	// One more delivered registration inside the fresh chunk, then crash:
	// its op and pub records die unsynced, while the boundary watermark
	// record — fsynced before its covered pushes went out — survives.
	if err := p.RegisterDocument(testDoc(watermarkChunk, 80)); err != nil {
		t.Fatal(err)
	}
	deliveredSeq := repo.LastSeq()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	chopLastRecord(t, filepath.Join(dir, "wal"))
	chopLastRecord(t, filepath.Join(dir, "wal"))

	p2, _, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.dur.claim; got != secondClaim {
		t.Errorf("recovered claim = %d, want %d (the newest watermark record; the reserved range must not move backwards)", got, secondClaim)
	}
	if got := p2.LogSeq(); got < secondClaim {
		t.Errorf("LogSeq after recovery = %d, want >= %d (claimed range reserved)", got, secondClaim)
	}
	if !p2.dur.inLost(deliveredSeq) {
		t.Errorf("delivered seq %d not in the lost ranges %v", deliveredSeq, p2.dur.lost)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second generation: p2's recovery must have PERSISTED the lost range
	// (a consolidated watermark record at the tail), not just computed it —
	// otherwise this reopen sees a gap-free log and forgets it.
	p3, _, err := OpenDurableWithStats("mdp", testSchema(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if !p3.dur.inLost(deliveredSeq) {
		t.Errorf("lost range forgotten after second recovery: seq %d not in %v", deliveredSeq, p3.dur.lost)
	}
	// A cursor inside the lost range still forces a full-state reset.
	repo3, err := repository.New("lmr", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	p3.Attach("lmr", repo3.ApplyPush)
	if _, err := p3.Resume("lmr", deliveredSeq); err != nil {
		t.Fatal(err)
	}
	if got, want := repo3.Len(), p3.Engine().ResourceCount(); got != want {
		t.Errorf("cache after reset resume = %d resources, want %d", got, want)
	}
}
