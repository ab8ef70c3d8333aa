// The MDP's changelog: a write-ahead log makes every acknowledged input
// operation crash-safe, and publish records in the same log let a
// reconnecting LMR resume the changeset stream from its acknowledged
// sequence number.
//
// Protocol invariants:
//
//   - Input operations (register/delete document, subscribe/unsubscribe)
//     are appended to the log BEFORE they are applied to the engine, in
//     pubMu order, so the log order equals the apply order and replay is
//     deterministic.
//   - The resulting per-interest-group changesets are appended as publish
//     records right after the apply, still under pubMu, so they share the
//     operation's group-commit fsync.
//   - An operation is acknowledged to the caller only after WaitDurable:
//     anything a client saw succeed survives kill -9.
//   - No sequence is handed to a subscriber (as a push or resume cursor)
//     until a fsynced delivered-watermark record covers it (claimed
//     watermarkChunk ahead, so the extra fsync is rare). Recovery reserves
//     the claimed range past the recovered tail and forces cursors inside
//     it to reset: their pushes were delivered but the records died with
//     the crash.
//   - Changeset application at the LMR is idempotent, so recovery and
//     resume may replay duplicates freely (at-least-once delivery).
//
// Recovery: load the snapshot (whose header records the log sequence it
// covers), then re-apply the logged operations past it. Re-applying
// regenerates the publish sets; they are re-appended as fresh publish
// records so later resumes see them. Operations that fail during replay
// failed identically when first applied (the engine is deterministic and
// operations are logged even when their application errors), so replay
// skips them.
package provider

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// Changelog record kinds. Op records precede their application (applyOp);
// pub records follow it; ack records are advisory bookkeeping for
// truncation; watermark records durably bound how far deliveries may have
// gotten (foldRecord reads both, and epoch records).
const (
	recRegister    = "register"
	recDelete      = "delete"
	recSubscribe   = "subscribe"
	recUnsubscribe = "unsubscribe"
	recNamedRule   = "named_rule"
	// recPub is the per-subscriber publish record of pre-group logs, never
	// written: parseRecord reads it as a one-member pub_group.
	recPub = "pub"
	// recPubGroup is the publish record of an interest group: one
	// changeset, one sequence, one or more member subscribers. It is
	// written in binary (appendPubGroupRecord); parseRecord gives JSON
	// pub_group records of older logs the binary record's shape.
	recPubGroup  = "pub_group"
	recAck       = "ack"
	recWatermark = "watermark"
	// recEpoch marks an epoch bump: a promotion appends it as the first
	// record of the new term, so the term change is durable, totally ordered
	// with the writes it fences, and replicates to followers verbatim.
	recEpoch = "epoch"
)

// logRecord is one decoded changelog record. Every kind but pub_group is
// written as JSON; see parseRecord.
type logRecord struct {
	Kind       string     `json:"kind"`
	Docs       []wire.Doc `json:"docs,omitempty"`       // register
	URI        string     `json:"uri,omitempty"`        // delete
	Subscriber string     `json:"subscriber,omitempty"` // subscribe, ack, legacy pub
	// Subscribers lists an interest group's members on pub_group records;
	// every member's cursor advances over the record's single sequence.
	Subscribers []string `json:"subscribers,omitempty"` // pub_group
	Rule        string   `json:"rule,omitempty"`        // subscribe, named_rule
	Name        string   `json:"name,omitempty"`        // named_rule
	SubID       int64    `json:"sub_id,omitempty"`      // unsubscribe
	AckSeq      uint64   `json:"ack_seq,omitempty"`     // ack
	Watermark   uint64   `json:"watermark,omitempty"`   // watermark
	// Lost carries the crash-lost sequence ranges (inclusive) on watermark
	// records, so a second crash cannot forget that a range's pushes were
	// delivered but their records died. Consolidated records (written by
	// recovery and Compact) carry the full list.
	Lost [][2]uint64 `json:"lost,omitempty"` // watermark
	// Changeset is the changeset of a legacy JSON pub or pub_group record.
	Changeset *core.Changeset `json:"changeset,omitempty"`
	Epoch     uint64          `json:"epoch,omitempty"` // epoch
	// enc is the encoded changeset of a pub_group record: a subslice of a
	// binary record's payload, or the encoding of a legacy JSON changeset.
	enc []byte
	// docs are a live register's decoded documents: applyOp uses them
	// instead of parsing Docs, which write fills with the request's XML
	// or, for an in-process caller, serializes from docs.
	docs []*rdf.Document
}

// pubGroupTag opens a binary pub_group record. JSON records open with '{'.
//
//	record = pubGroupTag uvarint(len(members)) members changeset
//	member = uvarint(len) bytes
//
// changeset is the core.AppendChangeset encoding that the record's push
// frames carry too.
const pubGroupTag = 0x01

// appendPubGroupRecord encodes a pub_group record. It returns the record
// and the changeset encoding inside it.
func appendPubGroupRecord(members []string, cs *core.Changeset) (rec, enc []byte) {
	rec = append(rec, pubGroupTag)
	rec = binary.AppendUvarint(rec, uint64(len(members)))
	for _, m := range members {
		rec = binary.AppendUvarint(rec, uint64(len(m)))
		rec = append(rec, m...)
	}
	start := len(rec)
	rec = core.AppendChangeset(rec, cs)
	return rec, rec[start:]
}

var errMalformedPubGroup = errors.New("provider: malformed pub_group record")

// parseRecord decodes a changelog record payload. A publish record's
// changeset is not decoded: rec.enc holds its encoding, inside payload for
// a binary record. A legacy JSON pub or pub_group record is given the same
// shape (kind pub_group, Subscribers, enc), so no reader tells them apart.
func parseRecord(payload []byte) (*logRecord, error) {
	if len(payload) == 0 || payload[0] != pubGroupTag {
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, err
		}
		if rec.Kind == recPub || rec.Kind == recPubGroup {
			if rec.Changeset == nil {
				return nil, fmt.Errorf("provider: %s record without a changeset", rec.Kind)
			}
			if rec.Kind == recPub {
				rec.Kind, rec.Subscribers = recPubGroup, []string{rec.Subscriber}
			}
			rec.enc = core.AppendChangeset(nil, rec.Changeset)
		}
		return &rec, nil
	}
	rec := &logRecord{Kind: recPubGroup}
	b := payload[1:]
	n, k := uvarint(b)
	if k <= 0 || n > uint64(len(b)) {
		return nil, errMalformedPubGroup
	}
	b = b[k:]
	rec.Subscribers = make([]string, n)
	for i := range rec.Subscribers {
		l, k := uvarint(b)
		if k <= 0 || l > uint64(len(b)-k) {
			return nil, errMalformedPubGroup
		}
		rec.Subscribers[i] = string(b[k : k+int(l)])
		b = b[k+int(l):]
	}
	// The changeset fills the rest of the record: push frames carry these
	// bytes as they are, so nothing may trail it.
	if l, k := uvarint(b); k <= 0 || l != uint64(len(b)-k) {
		return nil, errMalformedPubGroup
	}
	rec.enc = b
	return rec, nil
}

// uvarint reads a uvarint in its minimal encoding, the only one
// appendPubGroupRecord writes; k <= 0 reports anything else.
func uvarint(b []byte) (n uint64, k int) {
	n, k = binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return n, k
}

// durableState is the changelog side of a provider.
type durableState struct {
	log *changelog.Log
	dir string
	// temp marks a private directory made by New, which Close removes.
	temp bool
	// acked tracks each subscriber's highest acknowledged publish
	// sequence (guarded by Provider.mu); the truncation watermark is the
	// minimum over all subscribers with live subscriptions.
	acked map[string]uint64

	// claim is the delivered-watermark durably recorded in the log: no
	// push with a sequence above it has ever been handed to a subscriber.
	// Guarded by Provider.pubMu (all delivery happens under it).
	claim uint64

	// lost holds the [lo, hi] sequence ranges (inclusive) whose records
	// died unsynced in past crashes. Pushes in them may have reached
	// subscribers before the crash, but the records backing them no longer
	// exist, so a cursor inside any range must take a full-state reset.
	// The list is persisted in watermark records (and re-persisted by
	// recovery and Compact), so it survives repeated crashes and
	// truncation. Guarded by Provider.pubMu.
	lost [][2]uint64

	// streamFloor is the lowest sequence from which a replica's local log
	// copy is known contiguous. A mid-life snapshot install leaves the
	// local records below its coverage missing, so Resume must not claim a
	// gap-free replay across the floor. 0 on primaries. Guarded by
	// Provider.pubMu.
	streamFloor uint64
	// catchup is the replica Resume catch-up bound (see
	// DurableOptions.CatchupWait); immutable after open.
	catchup time.Duration

	// compactMu runs compactions one at a time. Close takes it, so no
	// compaction writes into a directory being closed or removed; closed
	// is guarded by it.
	compactMu sync.Mutex
	closed    bool
	// grownFrom is the log's AppendedBytes reading at which nothing past
	// the snapshot had been appended, so the log has grown past the
	// snapshot by AppendedBytes - grownFrom. Recovery seeds it (negative)
	// with the retained records past the snapshot; writing a snapshot
	// resets it. snapBytes is the snapshot file's size (0 while there is
	// none).
	grownFrom atomic.Int64
	snapBytes atomic.Int64
}

// inLost reports whether seq falls inside a crash-lost sequence range.
func (d *durableState) inLost(seq uint64) bool {
	for _, r := range d.lost {
		if seq >= r[0] && seq <= r[1] {
			return true
		}
	}
	return false
}

// addLost records a crash-lost range, deduplicating exact repeats (each
// consolidated watermark record carries the full list, so recovery scans
// see every range many times).
func (d *durableState) addLost(lo, hi uint64) {
	for _, r := range d.lost {
		if r[0] == lo && r[1] == hi {
			return
		}
	}
	d.lost = append(d.lost, [2]uint64{lo, hi})
}

// replayBatchLimit bounds how many replayed changesets coalesce into one
// batched push: enough to amortize frame and queue overhead, small enough
// to keep each frame far from MaxMessageSize and the receiver's apply
// granularity fine.
const replayBatchLimit = 128

// watermarkChunk is how far past the triggering sequence a delivered-
// watermark record claims. Claiming ahead amortizes the watermark's fsync
// to one per chunk of sequence numbers; the cost is up to a chunk of
// sequence numbers burned per recovery (uint64 never runs out).
const watermarkChunk = 1024

// DurableOptions tune a provider's changelog and engine.
type DurableOptions struct {
	// SegmentSize is the changelog segment rotation threshold.
	SegmentSize int64
	// Sync selects the changelog durability policy (default group commit).
	Sync changelog.SyncPolicy
	// Replica opens the provider as a follower MDP: its engine is driven
	// by replicated changelog records (see ApplyReplicated), writes are
	// proxied to the primary, and recovery never appends to the local log
	// copy (it must stay a verbatim prefix of the primary's log).
	Replica bool
	// CatchupWait bounds how long a replica's Resume waits for the
	// replicated stream to reach a subscriber's cursor before falling back
	// to a full-state reset (an LMR can be ahead of a freshly restarted
	// replica that has not caught up yet). Zero means 10s.
	CatchupWait time.Duration
	// EngineOptions configure the filter engine, freshly created or
	// restored from the snapshot (snapshots carry no engine options).
	EngineOptions core.Options
}

// defaultGroupWindow is the fsync commit window under load: a group commit
// holds its fsync up to this long while more operations are queued on the
// publish lock, letting them share it. Serial callers never wait (nothing
// is queued). At ~2ms a saturated provider amortizes each fsync over
// several registration batches while a registration's worst-case extra
// latency stays small against the network round trip it already pays.
const defaultGroupWindow = 2 * time.Millisecond

// RecoveryStats reports what OpenDurable replayed.
type RecoveryStats struct {
	SnapshotSeq uint64 // log sequence the loaded snapshot covered (0 = none)
	Replayed    int    // operations re-applied from the log tail
	Skipped     int    // logged operations whose application failed (they failed identically before the crash)
}

const (
	snapshotFile = "snapshot.db"
	// snapshotMagicV1 headers carry only the covered log sequence; V2 (since
	// epochs) adds the epoch the snapshot was taken at. Both are readable.
	snapshotMagicV1 = "MDVSNAP1"
	snapshotMagicV2 = "MDVSNAP2"
	walDir          = "wal"
)

// OpenDurable opens (or creates) a durable MDP rooted at dir: it loads the
// latest snapshot if present, replays the changelog tail past it, and
// returns a provider whose every acknowledged operation survives a crash.
func OpenDurable(name string, schema *rdf.Schema, dir string, opts DurableOptions) (*Provider, error) {
	p, _, err := OpenDurableWithStats(name, schema, dir, opts)
	return p, err
}

// OpenDurableWithStats is OpenDurable, also reporting recovery work.
func OpenDurableWithStats(name string, schema *rdf.Schema, dir string, opts DurableOptions) (*Provider, *RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("provider: %w", err)
	}
	stats := &RecoveryStats{}
	var engine *core.Engine
	var snapEpoch uint64
	var snapBytes int64
	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		snapSeq, epoch, eng, lerr := readSnapshot(f, schema, opts.EngineOptions)
		// The size only scales the compaction threshold: on an error it
		// stays 0 and the floor applies.
		snapBytes, _ = f.Seek(0, io.SeekEnd)
		f.Close()
		if lerr != nil {
			return nil, nil, fmt.Errorf("provider: load snapshot: %w", lerr)
		}
		engine = eng
		stats.SnapshotSeq = snapSeq
		snapEpoch = epoch
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("provider: %w", err)
	}
	if engine == nil {
		var err error
		engine, err = core.NewEngineWithOptions(schema, opts.EngineOptions)
		if err != nil {
			return nil, nil, err
		}
	}
	p := newFromEngine(name, engine)
	p.replica.Store(opts.Replica)
	p.bumpEpoch(snapEpoch)
	log, err := changelog.Open(filepath.Join(dir, walDir), changelog.Options{
		SegmentSize: opts.SegmentSize,
		Sync:        opts.Sync,
		GroupWindow: defaultGroupWindow,
		Busy:        func() bool { return p.pubPending.Load() > 0 },
	})
	if err != nil {
		return nil, nil, err
	}
	p.dur = &durableState{log: log, dir: dir, acked: map[string]uint64{}, catchup: opts.CatchupWait}
	p.dur.snapBytes.Store(snapBytes)
	if err := p.recover(stats); err != nil {
		log.Close()
		return nil, nil, err
	}
	return p, stats, nil
}

// LogSeq returns the changelog's last appended sequence.
func (p *Provider) LogSeq() uint64 { return p.dur.log.LastSeq() }

// ReplayLog streams the raw changelog records from sequence from (tests
// and tooling use it to compare replicas' log copies byte for byte — the
// replication invariant is a verbatim prefix). The payload slice is only
// valid during the callback.
func (p *Provider) ReplayLog(from uint64, fn func(seq uint64, payload []byte) error) error {
	return p.dur.log.Replay(from, fn)
}

// appendRecord appends one JSON changelog record (every kind but
// pub_group) and returns its sequence. Input operations, watermarks and
// epochs are appended under pubMu, which orders them; acks need no order.
func (p *Provider) appendRecord(rec *logRecord) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("provider: marshal %s record: %w", rec.Kind, err)
	}
	return p.dur.log.Append(payload)
}

// appendPubLocked appends one publish record for an interest group (of one
// or more members) and returns its sequence and the changeset's encoding,
// which the group's push frames reuse; caller holds pubMu.
func (p *Provider) appendPubLocked(members []string, cs *core.Changeset) (uint64, []byte, error) {
	rec, enc := appendPubGroupRecord(members, cs)
	seq, err := p.dur.log.Append(rec)
	return seq, enc, err
}

// claimDeliveredLocked makes the durable delivered-watermark cover seq;
// the caller holds pubMu and is about to hand seq to a subscriber (as a
// push or as a resume cursor). Pushes are delivered before the operation's
// group-commit fsync returns, so a crash can lose the records behind
// sequences a subscriber already applied; the watermark tells the next
// recovery how far deliveries may have gotten, so it keeps reused numbers
// away from subscriber cursors and resets cursors inside the lost range.
// Claims run watermarkChunk ahead, so the extra fsync amortizes to one per
// chunk of sequences; within a chunk this is a no-op.
func (p *Provider) claimDeliveredLocked(seq uint64) error {
	d := p.dur
	if seq == 0 || seq <= d.claim {
		return nil
	}
	if p.replica.Load() {
		// A replica appends nothing: the primary claimed this sequence
		// before handing it out, and its watermark records arrive in the
		// stream. A replica crash loses no delivered sequences anyway —
		// the primary re-streams whatever the local tail is missing.
		return nil
	}
	claim := seq + watermarkChunk
	if err := p.appendWatermarkLocked(claim); err != nil {
		return err
	}
	d.claim = claim
	return nil
}

// appendWatermarkLocked appends one watermark record claiming delivery
// coverage up to claim — always carrying the full crash-lost range list, so
// any single surviving watermark record reconstructs the whole delivered-
// watermark state — and waits for its fsync. The caller holds pubMu (or
// runs recovery, before the provider is shared).
func (p *Provider) appendWatermarkLocked(claim uint64) error {
	wseq, err := p.appendRecord(&logRecord{Kind: recWatermark, Watermark: claim, Lost: p.dur.lost})
	if err != nil {
		return err
	}
	return p.dur.log.WaitDurable(wseq)
}

// awaitDurable blocks until the given sequence is fsynced (group commit).
// The wait happens outside pubMu, so concurrent operations keep appending
// and share the leader's fsync.
func (p *Provider) awaitDurable(seq uint64) error {
	if seq == 0 {
		return nil
	}
	return p.dur.log.WaitDurable(seq)
}

// recover replays the changelog tail past the snapshot. It runs before the
// provider is shared, so no locks are needed.
func (p *Provider) recover(stats *RecoveryStats) error {
	// The snapshot must meet the retained log: if the oldest retained
	// record starts past the snapshot's coverage, the operations in
	// between are gone — e.g. an old snapshot file resurfaced after a
	// crash swallowed the rename while Compact had already truncated the
	// covering segments. Replaying would silently skip them; fail loudly.
	if oldest := p.dur.log.OldestSeq(); oldest > stats.SnapshotSeq+1 {
		return fmt.Errorf("provider: changelog starts at seq %d but the snapshot covers only up to %d: operations in between are lost",
			oldest, stats.SnapshotSeq)
	}
	var ops []*logRecord
	// Phase 1: scan the whole retained log. Collect the operations past
	// the snapshot to re-apply, and fold in the ack watermarks (acks
	// recorded before the snapshot sequence may not have been truncated
	// yet), the delivered-watermark claim and the epoch; publish records
	// need no replay here (they are read on demand by Resume). The records
	// past the snapshot seed the log's growth count.
	err := p.dur.log.Replay(p.dur.log.OldestSeq(), func(seq uint64, payload []byte) error {
		if seq > stats.SnapshotSeq {
			p.dur.grownFrom.Add(-int64(len(payload)))
		}
		if len(payload) > 0 && payload[0] == pubGroupTag {
			return nil // binary publish record: nothing to recover from it
		}
		rec, err := parseRecord(payload)
		if err != nil {
			if seq <= stats.SnapshotSeq {
				return nil // tolerated: pre-snapshot ops are not needed for state
			}
			return fmt.Errorf("provider: changelog record %d: %w", seq, err)
		}
		if !isOp(rec.Kind) {
			p.foldRecord(rec)
		} else if seq > stats.SnapshotSeq {
			ops = append(ops, rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Both the snapshot and the delivered-watermark can claim coverage
	// past the recovered tail: ack records are appended without awaiting
	// durability, and pushes reach subscribers before their group-commit
	// fsync returns, so an unsynced tail dies with a crash after its
	// sequences were already handed out. Reserve the claimed range — a new
	// record reusing a lost number would be skipped by the next recovery
	// as already-covered (losing an acknowledged operation) or skipped by
	// a subscriber as a duplicate (losing an update). Remember the range:
	// a cursor inside it refers to pushes whose records no longer exist,
	// so Resume must force a full-state reset.
	tail := p.dur.log.LastSeq()
	replica := p.replica.Load()
	if replica {
		// A follower's log must stay a verbatim prefix of the primary's:
		// recovery appends nothing — no watermark re-append, no regenerated
		// publish records — and reserves only the snapshot coverage, never
		// the delivered-watermark claim (the claim runs watermarkChunk ahead
		// of real records; reserving it would make the follower skip
		// genuinely new streamed records as duplicates). Records between the
		// old tail and an installed snapshot's coverage are not lost — the
		// primary re-streams anything missing — so there is no lost range to
		// record either; the snapshot floor just bounds gap-free resumes.
		if stats.SnapshotSeq > tail {
			if err := p.dur.log.Reserve(stats.SnapshotSeq); err != nil {
				return err
			}
			p.dur.streamFloor = stats.SnapshotSeq
		}
	} else {
		if floor := max(stats.SnapshotSeq, p.dur.claim); floor > tail {
			if err := p.dur.log.Reserve(floor); err != nil {
				return err
			}
			p.dur.addLost(tail+1, floor)
		}
		// Re-persist the consolidated delivered-watermark state at the log
		// tail. Without this, the newly computed lost range lives only in
		// memory (a second crash would forget that its pushes were
		// delivered), and a later Compact could truncate the segment holding
		// the only watermark record — leaving the next recovery with claim 0
		// and the delivered-but-unsynced range back in circulation.
		if p.dur.claim > 0 || len(p.dur.lost) > 0 {
			if err := p.appendWatermarkLocked(p.dur.claim); err != nil {
				return err
			}
		}
	}
	// Phase 2: re-apply in log order. A primary appends the regenerated
	// publish records, after the scan, so the replay iterator never chases
	// its own appends.
	for _, rec := range ops {
		ps, _, err := p.applyOp(rec)
		if err != nil {
			// The operation failed identically when first applied (ops are
			// logged before application; the engine is deterministic).
			stats.Skipped++
			continue
		}
		stats.Replayed++
		if ps == nil || replica {
			continue
		}
		for _, g := range ps.Groups {
			if _, _, err := p.appendPubLocked(g.Members, g.Changeset); err != nil {
				return err
			}
		}
	}
	return p.dur.log.Sync()
}

// isOp reports whether kind is an input operation's record (see applyOp).
func isOp(kind string) bool {
	switch kind {
	case recRegister, recDelete, recSubscribe, recUnsubscribe, recNamedRule:
		return true
	}
	return false
}

// foldRecord folds an ack, watermark or epoch record into the provider's
// bookkeeping; other kinds leave it unchanged. Recovery's scan and a
// replica's stream apply read these records through it. The caller holds
// pubMu or runs recovery.
func (p *Provider) foldRecord(rec *logRecord) {
	switch rec.Kind {
	case recAck:
		p.mu.Lock()
		if rec.AckSeq > p.dur.acked[rec.Subscriber] {
			p.dur.acked[rec.Subscriber] = rec.AckSeq
		}
		p.mu.Unlock()
	case recWatermark:
		if rec.Watermark > p.dur.claim {
			p.dur.claim = rec.Watermark
		}
		for _, r := range rec.Lost {
			p.dur.addLost(r[0], r[1])
		}
	case recEpoch:
		p.bumpEpoch(rec.Epoch)
	}
}

// Ack records that the subscriber has applied all pushes up to seq; it
// advances the truncation watermark. Acks are advisory: they are appended
// to the changelog without waiting for an fsync.
func (p *Provider) Ack(subscriber string, seq uint64) error {
	if seq == 0 {
		return nil
	}
	p.mu.Lock()
	if seq <= p.dur.acked[subscriber] {
		p.mu.Unlock()
		return nil
	}
	p.dur.acked[subscriber] = seq
	p.mu.Unlock()
	if p.replica.Load() {
		// Local bookkeeping only: the ack gates this replica's own log
		// truncation, but is never appended to the verbatim log copy.
		return nil
	}
	_, err := p.appendRecord(&logRecord{Kind: recAck, Subscriber: subscriber, AckSeq: seq})
	return err
}

// Resume re-delivers every publish record for the subscriber with a
// sequence past fromSeq, in order, through the subscriber's attached
// channels, and returns the sequence the subscriber is then current to.
// If the changelog can no longer prove a gap-free replay (truncated past
// fromSeq, fromSeq ahead of the log, or fromSeq inside the sequence range
// a crash swallowed after its pushes were already delivered), it instead
// delivers one full-state reset changeset rebuilding the subscriber's
// cache from the live match sets.
func (p *Provider) Resume(subscriber string, fromSeq uint64) (uint64, error) {
	// A subscriber failing over to a replica can be AHEAD of it: the
	// primary pushed (and the LMR applied) sequences the replicated stream
	// has not delivered here yet. Wait briefly for the stream to catch up —
	// outside pubMu, which ApplyReplicated needs to make progress — and
	// fall back to a full-state reset if it cannot (e.g. the primary died
	// before shipping those records to anyone).
	if p.replica.Load() && fromSeq > p.dur.log.LastSeq() {
		bound := p.dur.catchup
		if bound <= 0 {
			bound = 10 * time.Second
		}
		deadline := time.Now().Add(bound)
		for p.dur.log.LastSeq() < fromSeq && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Collect the replay (or the reset fill) under pubMu — it must match
	// the log position exactly — then deliver through the turnstile like
	// any publish, so the replay slots into the total order without
	// blocking concurrent registrations during its fan-out.
	p.pubMu.Lock()
	latest := p.dur.log.LastSeq()
	// A cursor inside the crash-lost range points at pushes whose records
	// no longer exist (they were delivered, then died unsynced): the
	// subscriber holds state the provider cannot account for, so only a
	// reset restores convergence.
	lost := p.dur.inLost(fromSeq)
	if fromSeq == latest && !lost {
		p.pubMu.Unlock()
		return latest, nil // already current
	}
	// latest becomes the subscriber's new cursor; it must be claimed like
	// any delivered sequence before it is handed out.
	if err := p.claimDeliveredLocked(latest); err != nil {
		p.pubMu.Unlock()
		return 0, err
	}
	gapFree := !lost && fromSeq < latest && fromSeq+1 >= p.dur.log.OldestSeq() &&
		fromSeq >= p.dur.streamFloor
	var dels []delivery
	if !gapFree {
		d, err := p.resetDelivery(subscriber, latest)
		if err != nil {
			p.pubMu.Unlock()
			return 0, err
		}
		dels = append(dels, d)
	} else {
		// Consecutive replay records for the cursor coalesce into batched
		// pushes (bounded by replayBatchLimit), so a long catch-up pays one
		// frame and one queue slot per batch instead of per record.
		var batch []pushItem
		flush := func() {
			if len(batch) == 0 {
				return
			}
			dels = append(dels, delivery{subs: []string{subscriber}, sync: true, pushes: batch})
			if len(batch) > 1 {
				p.replayCoalescedRecords.Add(uint64(len(batch)))
				p.replayCoalescedBatches.Add(1)
			}
			batch = nil
		}
		err := p.dur.log.Replay(fromSeq+1, func(seq uint64, payload []byte) error {
			rec, err := parseRecord(payload)
			if err != nil {
				return fmt.Errorf("provider: changelog record %d: %w", seq, err)
			}
			if rec.Kind != recPubGroup || !slices.Contains(rec.Subscribers, subscriber) {
				return nil
			}
			// Replays block on queue backpressure (sync) rather than drop:
			// the backlog can exceed any queue bound, and the resuming
			// subscriber is actively draining it. The record's changeset
			// bytes go into the frame as they are, copied out of the replay
			// buffer, which is only valid during this callback.
			batch = append(batch, pushItem{seq: seq, enc: append([]byte(nil), rec.enc...)})
			if len(batch) >= replayBatchLimit {
				flush()
			}
			return nil
		})
		if err != nil {
			p.pubMu.Unlock()
			return 0, err
		}
		flush()
	}
	t := p.turn.ticket()
	p.pubMu.Unlock()
	p.deliverInTurn(t, dels)
	return latest, nil
}

// resetDelivery builds a full-state reset for subscriber at seq: one fill
// rebuilding its cache from the live match sets. The caller holds pubMu.
func (p *Provider) resetDelivery(subscriber string, seq uint64) (delivery, error) {
	fill, err := p.Engine().ResubscribeFill(subscriber)
	return delivery{subs: []string{subscriber}, sync: true,
		pushes: []pushItem{{seq: seq, reset: true, cs: fill}}}, err
}

// compactFloor is the least growth of the log past its snapshot that
// makes an operation compact (compactIfGrown). Truncation frees whole
// segments and the default segment is 64 MiB, so compacting sooner would
// free nothing.
const compactFloor = 64 << 20

// compactIfGrown runs Compact once the log has grown past the snapshot by
// max(compactFloor, the snapshot's size). Waiting for growth equal to the
// snapshot's size keeps the snapshot bytes written at or below the log
// bytes written, whatever the size of the rule base. Operations that append
// call it outside pubMu (a primary's write after its durable wait); if a
// compaction is already running it returns at once. A failure is counted
// and never fails the operation: the growth count restarts, so the next
// crossing of the threshold retries.
func (p *Provider) compactIfGrown() {
	d := p.dur
	grown := func() bool {
		return int64(d.log.AppendedBytes())-d.grownFrom.Load() >= max(compactFloor, d.snapBytes.Load())
	}
	if !grown() || !d.compactMu.TryLock() {
		return
	}
	defer d.compactMu.Unlock()
	if grown() && p.compactLocked() != nil {
		d.grownFrom.Store(int64(d.log.AppendedBytes()))
	}
}

// Compact writes a snapshot covering the current changelog sequence, then
// removes changelog segments that are both covered by the snapshot and
// acknowledged by every subscriber with live subscriptions. Registrations
// are quiesced for the duration of the snapshot write. Compactions run
// one at a time.
func (p *Provider) Compact() error {
	p.dur.compactMu.Lock()
	defer p.dur.compactMu.Unlock()
	return p.compactLocked()
}

// compactLocked is Compact for a caller holding compactMu; it counts the
// compaction by result.
func (p *Provider) compactLocked() (err error) {
	defer func() {
		if err != nil {
			p.compactFailures.Add(1)
		} else {
			p.compactions.Add(1)
		}
	}()
	if p.dur.closed {
		return changelog.ErrClosed
	}
	p.pubMu.Lock()
	seq := p.dur.log.LastSeq()
	err = p.dur.writeSnapshotFile(func(w io.Writer) error {
		return writeSnapshot(w, seq, p.Epoch(), p.Engine())
	})
	if err == nil && !p.replica.Load() && (p.dur.claim > 0 || len(p.dur.lost) > 0) {
		// The truncation below may drop the segment holding the latest
		// watermark record; re-establish the delivered-watermark state at
		// the tail first, or a post-compaction crash would recover with
		// claim 0 and put delivered-but-unsynced sequences back in
		// circulation.
		err = p.appendWatermarkLocked(p.dur.claim)
	}
	p.pubMu.Unlock()
	if err != nil {
		return err
	}
	watermark, err := p.truncationWatermark(seq)
	if err != nil {
		return err
	}
	_, err = p.dur.log.TruncateBelow(watermark + 1)
	return err
}

// truncationWatermark computes the highest sequence safe to drop: the
// minimum of the snapshot coverage and every live subscriber's ack.
// Subscribers that have never acknowledged anything pin the log
// (watermark 0) until they do.
func (p *Provider) truncationWatermark(snapSeq uint64) (uint64, error) {
	subs, err := p.Engine().Subscriptions()
	if err != nil {
		return 0, err
	}
	watermark := snapSeq
	p.mu.Lock()
	defer p.mu.Unlock()
	// Connected followers pin truncation too: dropping records they have
	// not acknowledged would force them into a full snapshot re-bootstrap.
	// Disconnected ones do not (a dead follower must not pin the log
	// forever); they re-bootstrap if truncation outran them.
	for _, fs := range p.followers {
		if fs.connected && fs.acked < watermark {
			watermark = fs.acked
		}
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if seen[s.Subscriber] {
			continue
		}
		seen[s.Subscriber] = true
		if acked := p.dur.acked[s.Subscriber]; acked < watermark {
			watermark = acked
		}
	}
	return watermark, nil
}

// writeSnapshotFile replaces the snapshot file with what write produces
// (writeSnapshot's format), atomically: temp file, fsync, rename. The
// caller holds pubMu, so the log's AppendedBytes pairs with what the
// snapshot covers: the growth count restarts from it.
func (d *durableState) writeSnapshotFile(write func(io.Writer) error) error {
	path := filepath.Join(d.dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename must be durable before the caller truncates the WAL
	// segments the previous snapshot depended on: without the directory
	// fsync a crash can resurface the old snapshot with its covering
	// segments already gone.
	syncDir(filepath.Dir(path))
	d.grownFrom.Store(int64(d.log.AppendedBytes()))
	d.snapBytes.Store(size)
	return nil
}

// syncDir fsyncs a directory so a renamed snapshot's entry is durable.
// Best-effort: some platforms cannot fsync directories.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeSnapshot serializes header (magic + covered log sequence + epoch)
// and the engine state to w. A bootstrap ships the snapshot file as it is,
// so a follower persists the received bytes verbatim.
func writeSnapshot(w io.Writer, seq, epoch uint64, engine *core.Engine) error {
	if _, err := io.WriteString(w, snapshotMagicV2); err != nil {
		return err
	}
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], seq)
	binary.BigEndian.PutUint64(hdr[8:], epoch)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return engine.Save(w)
}

// readSnapshotHeader reads a snapshot's header, either format version:
// the log sequence it covers and the epoch it was taken at. V1 snapshots
// (pre-epoch) report epoch 0; the caller treats that as "epoch unknown"
// and keeps its default.
func readSnapshotHeader(r io.Reader) (seq, epoch uint64, err error) {
	magic := make([]byte, len(snapshotMagicV2))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, 0, err
	}
	if string(magic) != snapshotMagicV1 && string(magic) != snapshotMagicV2 {
		return 0, 0, fmt.Errorf("not an MDV durable snapshot (bad magic %q)", magic)
	}
	if err := binary.Read(r, binary.BigEndian, &seq); err != nil {
		return 0, 0, err
	}
	if string(magic) == snapshotMagicV2 {
		if err := binary.Read(r, binary.BigEndian, &epoch); err != nil {
			return 0, 0, err
		}
	}
	return seq, epoch, nil
}

// readSnapshot parses a snapshot written by writeSnapshotFile: its header
// (readSnapshotHeader) and the engine. The engine options configure the
// restored engine (snapshots carry no ablation state; derived state is
// rebuilt from the canonical tables).
func readSnapshot(r io.Reader, schema *rdf.Schema, opts core.Options) (uint64, uint64, *core.Engine, error) {
	br := bufio.NewReader(r)
	seq, epoch, err := readSnapshotHeader(br)
	if err != nil {
		return 0, 0, nil, err
	}
	engine, err := core.LoadWithOptions(br, schema, opts)
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, epoch, engine, nil
}
