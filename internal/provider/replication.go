// Primary-side replication: changelog shipping to follower MDPs, and the
// follower-side apply path (ApplyReplicated, InstallSnapshot).
//
// The replication unit is the changelog record, verbatim: a follower's log
// is a byte-identical prefix of the primary's (modulo reserved gaps, which
// are sequence-number holes on both sides). The primary streams each record
// only once it is DURABLE there (the tailing Reader's contract), so a
// primary crash can never have shipped a record it later disowns. The
// follower appends the record to its own log, applies operation records to
// its engine in strict sequence order behind the publish lock — the same
// total order the primary applied them in, which is what makes follower
// state deterministic — and delivers publish records to its locally
// attached subscribers through the delivery turnstile.
//
// Bootstrap: a follower whose tail lies below the primary's retained log
// cannot replay the gap; it requests a snapshot (the primary compacts and
// ships its snapshot file, chunked over the wire), installs it mid-life
// (engine swap under the publish lock + full-state resets to attached
// subscribers), and streams from the snapshot's coverage.
package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// WriteProxy forwards a replica's write operations to the primary. Both
// *Provider (in-process) and the network provider client satisfy it.
type WriteProxy interface {
	RegisterDocuments(docs []*rdf.Document) error
	DeleteDocument(uri string) error
	Subscribe(subscriber, rule string) (int64, error)
	Unsubscribe(subID int64) error
	RegisterNamedRule(name, rule string) error
}

// ErrNotPrimary is returned for write operations on a replica that has no
// live connection to its primary.
var ErrNotPrimary = errors.New("provider: replica has no primary connection to proxy writes to")

// ErrNotReplica is returned for replica-only operations on a primary.
var ErrNotReplica = errors.New("provider: not a replica")

// errSnapshotRequired marks a stream request below the retained log; the
// follower reacts by requesting a snapshot bootstrap.
const errSnapshotRequired = "snapshot required"

// SetWriteProxy installs (or clears, with nil) the primary handle a
// replica forwards write operations to.
func (p *Provider) SetWriteProxy(w WriteProxy) {
	p.mu.Lock()
	p.proxy = w
	p.mu.Unlock()
}

func (p *Provider) writeProxy() (WriteProxy, error) {
	p.mu.Lock()
	w := p.proxy
	p.mu.Unlock()
	if w == nil {
		// Typed and retryable: the caller learns the last-known topology so
		// it can keep serving reads and retry the write with backoff while
		// the cluster elects (or an operator promotes) a new primary.
		return nil, p.noPrimaryErr()
	}
	return w, nil
}

// followerTag marks a connection as a follower's replication stream (a
// distinct type so the wire server's disconnect callback can tell it from
// a subscriber push channel).
type followerTag string

// followerState is one follower MDP's stream state at the primary.
// Entries outlive disconnects so lag stays visible; only connected
// followers pin log truncation.
type followerState struct {
	name      string
	conn      *wire.ServerConn  // guarded by Provider.mu
	reader    *changelog.Reader // guarded by Provider.mu
	connected bool              // guarded by Provider.mu
	acked     uint64            // guarded by Provider.mu
	streamed  atomic.Uint64     // written by the streamer goroutine
}

// snapshotChunkSize bounds one shipped snapshot chunk; base64-encoded JSON
// framing keeps the resulting message well under the wire frame limit.
const snapshotChunkSize = 4 << 20

// handleReplSnapshot serves a follower's bootstrap request. If the
// follower's tail meets the retained log no snapshot is needed; otherwise
// the provider compacts and ships the snapshot file Compact wrote, read
// from disk, as ordered chunk pushes on this connection — in-handler, so
// every chunk precedes the response. The file's header gives the sequence
// and epoch it covers.
func (p *Provider) handleReplSnapshot(conn *wire.ServerConn, req *wire.ReplSnapshotRequest) (*wire.ReplSnapshotResponse, error) {
	if err := p.fencePeer(req.Epoch); err != nil {
		return nil, err
	}
	if p.replica.Load() {
		return nil, fmt.Errorf("provider: a replica cannot serve replication bootstraps")
	}
	t0 := time.Now()
	// Force bypasses the tail check: a demoted ex-primary's tail may hold
	// divergent records the sequence numbers alone cannot reveal, so its
	// rejoin must take a snapshot unconditionally and rebuild from it.
	if !req.Force && req.FromSeq+1 >= p.dur.log.OldestSeq() {
		return &wire.ReplSnapshotResponse{Needed: false, Epoch: p.Epoch()}, nil
	}
	if err := p.Compact(); err != nil {
		return nil, fmt.Errorf("provider: bootstrap snapshot: %w", err)
	}
	// A later compaction may replace the file; the open handle keeps this
	// one, and its header names what it covers. The header is read with
	// ReadAt, so the chunks below still start at offset 0.
	f, err := os.Open(filepath.Join(p.dur.dir, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("provider: bootstrap snapshot: %w", err)
	}
	defer f.Close()
	seq, epoch, err := readSnapshotHeader(io.NewSectionReader(f, 0, snapshotChunkSize))
	if err != nil {
		return nil, fmt.Errorf("provider: bootstrap snapshot: %w", err)
	}
	chunk := make([]byte, snapshotChunkSize)
	for last := false; !last; {
		n, err := io.ReadFull(f, chunk)
		last = err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !last {
			return nil, fmt.Errorf("provider: bootstrap snapshot: %w", err)
		}
		frame, err := wire.EncodeNotice(wire.KindReplSnapshotChunk, &wire.ReplSnapshotChunk{Data: chunk[:n], Last: last})
		if err != nil {
			return nil, err
		}
		if err := conn.NotifySync(frame); err != nil {
			return nil, err
		}
	}
	p.snapshotsShipped.Add(1)
	if m := p.met.Load(); m != nil && m.snapshotShip != nil {
		m.snapshotShip.ObserveSince(t0)
	}
	return &wire.ReplSnapshotResponse{Needed: true, SnapshotSeq: seq, Epoch: epoch}, nil
}

// handleReplStream subscribes the connection to the changelog record
// stream from req.FromSeq+1 on. The records are pushed by a dedicated
// streamer goroutine tailing the log, so a slow follower never blocks the
// publish path, and each record is shipped only once durable.
func (p *Provider) handleReplStream(conn *wire.ServerConn, req *wire.ReplStreamRequest) (*wire.ReplStreamResponse, error) {
	if err := p.fencePeer(req.Epoch); err != nil {
		return nil, err
	}
	if p.replica.Load() {
		return nil, fmt.Errorf("provider: a replica cannot serve replication streams")
	}
	if req.Follower == "" {
		return nil, fmt.Errorf("provider: replication stream requires a follower name")
	}
	if req.FromSeq+1 < p.dur.log.OldestSeq() {
		return nil, fmt.Errorf("provider: stream from seq %d: records below %d are truncated; %s",
			req.FromSeq, p.dur.log.OldestSeq(), errSnapshotRequired)
	}
	reader := p.dur.log.NewReader(req.FromSeq + 1)
	latest := p.dur.log.LastSeq()
	conn.Tag.Store(followerTag(req.Follower))
	p.mu.Lock()
	fs := p.followers[req.Follower]
	if fs == nil {
		fs = &followerState{name: req.Follower}
		p.followers[req.Follower] = fs
	}
	// A reconnect replaces a stale stream: closing the old reader stops its
	// streamer goroutine, closing the old conn hangs up the dead channel.
	if fs.reader != nil {
		fs.reader.Close()
	}
	if fs.conn != nil && fs.conn != conn {
		fs.conn.Close()
	}
	fs.conn = conn
	fs.reader = reader
	fs.connected = true
	p.streamWG.Add(1)
	p.mu.Unlock()
	go p.streamToFollower(fs, conn, reader)
	return &wire.ReplStreamResponse{LatestSeq: latest, Epoch: p.Epoch()}, nil
}

// streamToFollower tails the log and ships each durable record. It exits
// when the reader is closed (disconnect, reconnect replacement, provider
// close), the log is closed, the position is truncated away, or the
// connection dies; in every case the conn is closed so the follower
// re-dials and renegotiates (bootstrapping if it fell below the log).
func (p *Provider) streamToFollower(fs *followerState, conn *wire.ServerConn, reader *changelog.Reader) {
	defer p.streamWG.Done()
	defer conn.Close()
	defer reader.Close()
	for {
		seq, payload, err := reader.Next()
		if err != nil {
			return
		}
		// Stamped with the CURRENT epoch at send time (even for old records):
		// the stamp proves the sender still believes itself primary of that
		// term, and the follower drops the session if it has seen a higher one.
		push := &wire.ReplRecordPush{Seq: seq, Rec: payload, SentUnixNano: time.Now().UnixNano(), Epoch: p.Epoch()}
		// A record whose frame exceeds the wire limit cannot be shipped;
		// skipping it would break the verbatim-prefix invariant, so the
		// stream ends here.
		frame, err := wire.EncodeNotice(wire.KindReplRecord, push)
		if err != nil {
			return
		}
		// Blocking enqueue: dropping a record would break the verbatim-
		// prefix invariant. A truly stuck follower trips the connection
		// write deadline, which closes the conn and errors this send.
		if err := conn.NotifySync(frame); err != nil {
			return
		}
		fs.streamed.Store(seq)
	}
}

// handleReplAck records a follower's durable applied prefix.
func (p *Provider) handleReplAck(req *wire.ReplAckRequest) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.followers[req.Follower]
	if fs == nil {
		return fmt.Errorf("provider: ack from unknown follower %q (no stream registered)", req.Follower)
	}
	if req.Seq > fs.acked {
		fs.acked = req.Seq
	}
	return nil
}

// followerDisconnected marks a follower's stream down and releases its
// reader (which stops the streamer goroutine).
func (p *Provider) followerDisconnected(name string, conn *wire.ServerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.followers[name]
	if fs == nil || fs.conn != conn {
		return // a newer stream already replaced this one
	}
	fs.connected = false
	fs.conn = nil
	if fs.reader != nil {
		fs.reader.Close()
		fs.reader = nil
	}
}

// Followers reports per-follower replication health (primary side).
func (p *Provider) Followers() []wire.FollowerDelivery {
	return p.DeliveryStats().Followers
}

// SyncLog fsyncs the changelog tail and returns the durable sequence. The
// follower's ack loop calls it to batch the durability cost ApplyReplicated
// deliberately skips.
func (p *Provider) SyncLog() (uint64, error) {
	if err := p.dur.log.Sync(); err != nil {
		return 0, err
	}
	return p.dur.log.DurableSeq(), nil
}

// ApplyReplicated appends one primary changelog record verbatim to the
// replica's log and applies it: operation records drive the engine (their
// publish sets are discarded — the primary's own publish records follow in
// the stream), publish records are delivered to locally attached
// subscribers, ack and watermark records update in-memory bookkeeping.
// Records at or below the local tail are duplicates from a stream overlap
// and are skipped. No durability wait happens here — the follower's ack
// loop syncs the log and acknowledges in batches. After the delivery, the
// replica compacts if its log has outgrown its snapshot (compactIfGrown).
func (p *Provider) ApplyReplicated(seq uint64, payload []byte, sentNano int64) error {
	if !p.replica.Load() {
		return ErrNotReplica
	}
	// Parse before anything reaches the local log: a record the replica
	// cannot read would make its next recovery fail.
	rec, err := parseRecord(payload)
	if err != nil {
		return fmt.Errorf("provider: replicated record %d: %w", seq, err)
	}
	p.lockPub()
	// Recheck under the publish lock: a Promote that flipped the role while
	// this record waited must win — a primary appends nothing replicated.
	if !p.replica.Load() {
		p.unlockPub()
		return ErrNotReplica
	}
	tail := p.dur.log.LastSeq()
	if seq <= tail {
		p.unlockPub()
		return nil // duplicate from a resumed stream
	}
	if seq > tail+1 {
		// The gap is a reserved range on the primary (its numbers carry no
		// records); pin the same gap locally so sequences stay aligned.
		if err := p.dur.log.Reserve(seq - 1); err != nil {
			p.unlockPub()
			return err
		}
	}
	got, err := p.dur.log.Append(payload)
	if err != nil {
		p.unlockPub()
		return err
	}
	if got != seq {
		p.unlockPub()
		return fmt.Errorf("provider: replicated record %d landed at local seq %d (log diverged)", seq, got)
	}
	var dels []delivery
	switch {
	case isOp(rec.Kind):
		// The publish set is discarded: the primary's own publish records
		// follow in the stream. An application error is the deterministic
		// replay of an operation that failed identically on the primary
		// (operations are logged before application there).
		p.applyOp(rec)
	case rec.Kind == recPubGroup:
		// rec.enc points into payload, which outlives the delivery: it
		// completes before this call returns.
		dels = append(dels, delivery{subs: rec.Subscribers,
			pushes: []pushItem{{seq: seq, enc: rec.enc, pubNano: sentNano}}})
	default:
		// Ack, watermark and epoch records. An epoch record is the primary's
		// promotion: this follower now serves its term, and the record,
		// appended above, keeps it so across a local restart.
		p.foldRecord(rec)
	}
	p.unlockPubAndDeliver(dels)
	p.compactIfGrown()
	return nil
}

// InstallSnapshot installs a shipped bootstrap snapshot mid-life: the
// bytes are persisted as the replica's snapshot file, the engine is
// swapped under the publish lock, the log reserves the covered range, and
// every attached subscriber receives a full-state reset fill (their caches
// predate the snapshot, and the records in between are not locally
// replayable). The stream floor moves to the snapshot's coverage, which is
// returned; the caller streams from there. Like a compaction's, the
// snapshot write restarts the log's growth count.
func (p *Provider) InstallSnapshot(data []byte) (uint64, error) {
	if !p.replica.Load() {
		return 0, ErrNotReplica
	}
	snapSeq, snapEpoch, eng, err := readSnapshot(bytes.NewReader(data), p.Engine().Schema(), p.Engine().Options())
	if err != nil {
		return 0, fmt.Errorf("provider: install snapshot: %w", err)
	}
	p.lockPub()
	if !p.replica.Load() {
		p.unlockPub()
		return 0, ErrNotReplica
	}
	if p.resyncPending.Load() {
		// Divergent-tail repair on a demoted ex-primary: its log may hold
		// records the new primary's history disowns (same sequence numbers,
		// different bytes — acknowledged to nobody, because their fsync
		// returned after the followers were already gone, or never returned
		// at all). Wipe the local log entirely and restart numbering at the
		// snapshot's coverage; the verbatim-prefix invariant holds again from
		// there on.
		if err := p.dur.log.Reset(snapSeq); err != nil {
			p.unlockPub()
			return 0, err
		}
	} else if snapSeq < p.dur.log.LastSeq() {
		p.unlockPub()
		return 0, fmt.Errorf("provider: snapshot covers seq %d but the local log is already at %d", snapSeq, p.dur.log.LastSeq())
	}
	// Persist first: if we crash right after the rename, recovery loads
	// this snapshot and resumes streaming from its coverage.
	if err := p.dur.writeSnapshotFile(func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		p.unlockPub()
		return 0, err
	}
	p.eng.Store(eng)
	if snapSeq > p.dur.log.LastSeq() {
		if err := p.dur.log.Reserve(snapSeq); err != nil {
			p.unlockPub()
			return 0, err
		}
	}
	p.dur.streamFloor = snapSeq
	p.bumpEpoch(snapEpoch)
	p.resyncPending.Store(false)
	// Attached subscribers hold caches from before the gap; rebuild them
	// from the fresh engine with full-state resets, sequenced like any
	// publish so later replicated deliveries order after them.
	p.mu.Lock()
	names := make(map[string]bool, len(p.attached)+len(p.wireAttach))
	for name := range p.attached {
		names[name] = true
	}
	for name := range p.wireAttach {
		names[name] = true
	}
	p.mu.Unlock()
	var dels []delivery
	for name := range names {
		d, err := p.resetDelivery(name, snapSeq)
		if err != nil {
			p.unlockPub()
			return 0, err
		}
		dels = append(dels, d)
	}
	p.unlockPubAndDeliver(dels)
	return snapSeq, nil
}
