// Package provider implements the Metadata Provider (MDP) tier of MDV
// (paper §2.2): the backbone node that stores global metadata, runs the
// publish & subscribe filter on registrations, and publishes changesets to
// attached LMRs. The backbone is replicated by shipping the primary's
// changelog to follower MDPs (replication.go).
package provider

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// ApplyFunc receives one published changeset. seq is the changelog
// sequence number of the publish; reset marks a full-state changeset that
// replaces the subscriber's cached global metadata (see
// wire.ChangesetPush).
type ApplyFunc = func(seq uint64, reset bool, cs *core.Changeset) error

// Provider is one MDP node.
type Provider struct {
	name string
	// eng is the filter engine. It is an atomic pointer because a replica
	// installs a snapshot mid-life (InstallSnapshot swaps the whole engine
	// under pubMu) while read paths (Browse, queries, stats) run unlocked.
	eng atomic.Pointer[core.Engine]

	// replica marks a follower MDP: the engine is driven exclusively by
	// replicated changelog records (ApplyReplicated), write operations are
	// proxied to the primary (SetWriteProxy) or rejected, and nothing is
	// ever appended to the local log copy except verbatim primary records.
	// Atomic because failover flips it at runtime: Promote turns a replica
	// into the primary of a new epoch, and a resurrected stale primary
	// demotes itself on proof of a higher epoch.
	replica atomic.Bool

	// epoch is the replication term (see epoch.go). 1 from birth; raised by
	// Promote and by observed higher epochs.
	epoch atomic.Uint64
	// fencedWrites counts requests rejected by the epoch fence; promotions
	// counts successful Promote calls on this node.
	fencedWrites atomic.Uint64
	promotions   atomic.Uint64
	// resyncPending marks a demoted ex-primary whose local log tail may
	// diverge from the new primary's history: the next bootstrap must force
	// a snapshot (and InstallSnapshot may rewind the log below its tail).
	resyncPending atomic.Bool

	// OnDemote, if set, is invoked (on its own goroutine) when the node
	// demotes itself after observing a higher epoch. The supervising
	// process uses it to start a follower pointed at the new primary. Set
	// before the provider is shared.
	OnDemote func(epoch uint64, primary string)

	mu sync.Mutex
	// advertise is the address this node tells peers to reach it at;
	// primaryHint/peersHint are a replica's last-known primary address and
	// candidate endpoints (set by the follower subsystem). All guarded by mu.
	advertise   string
	primaryHint string
	peersHint   []string
	// stopReplication, set by the follower subsystem, halts the replication
	// session (guarded by mu); Promote invokes it before fencing the flip.
	stopReplication func()
	// attached holds in-process delivery callbacks per subscriber;
	// wireAttach holds push connections of wire-attached subscribers.
	attached   map[string][]ApplyFunc
	wireAttach map[string][]*wire.ServerConn
	// delStats accumulates per-subscriber delivery health counters
	// (guarded by mu; entries outlive disconnects).
	delStats map[string]*subscriberCounters
	// proxy forwards write operations of a replica to the primary
	// (guarded by mu; nil until the follower subsystem connects).
	proxy WriteProxy
	// followers holds per-follower replication stream state on a primary
	// (guarded by mu; entries outlive disconnects for lag visibility).
	followers map[string]*followerState
	// streamWG joins the per-follower streamer goroutines on Close.
	streamWG sync.WaitGroup
	// snapshotsShipped counts bootstrap snapshots served to followers;
	// compactions and compactFailures count Compact runs by result.
	snapshotsShipped atomic.Uint64
	compactions      atomic.Uint64
	compactFailures  atomic.Uint64

	// dur holds the changelog state.
	dur *durableState

	// OnDeliveryError, if set, observes changeset delivery failures
	// (broken subscribers). Delivery failures never fail the registration
	// that produced the changeset: the metadata is committed either way,
	// and a crashed LMR re-subscribes to recover.
	OnDeliveryError func(subscriber string, err error)

	// pubMu imposes a total order on everything a subscriber observes:
	// registrations/deletions hold it across the engine run, the changelog
	// append, and the sequence assignment of the resulting changesets, and
	// Subscribe holds it across rule registration and the sequencing of the
	// initial cache fill. Delivery itself happens OUTSIDE pubMu: each
	// operation takes a delivery ticket while still holding the lock (so
	// ticket order equals publish order), releases pubMu, and then performs
	// its deliveries when the turnstile serves its ticket. The next
	// operation's filter run overlaps with this one's delivery fan-out,
	// while every subscriber still observes changesets in publish order.
	pubMu sync.Mutex
	// turn is the delivery turnstile sequencing the delivery stage.
	turn deliveryTurnstile
	// pubPending counts operations queued for or holding pubMu. The
	// changelog's group-commit leader reads it (via DurableOptions' busy
	// hook) to decide whether delaying its fsync would let more operations
	// share it.
	pubPending atomic.Int32

	// encodeSavedBytes counts the wire bytes the encode-once fan-out
	// avoided re-marshaling: frame length times (member connections - 1),
	// summed over group deliveries.
	encodeSavedBytes atomic.Uint64
	// replayCoalescedRecords/Batches count resume replay records folded
	// into batched pushes and the batches emitted.
	replayCoalescedRecords atomic.Uint64
	replayCoalescedBatches atomic.Uint64

	// met/reg hold the opt-in observability hooks (see EnableMetrics);
	// nil until enabled.
	met atomic.Pointer[provMetrics]
	reg atomic.Pointer[metrics.Registry]

	server *wire.Server
}

// lockPub acquires the publish order lock, counting this operation as
// commit-pressure for the group-commit window while it waits and runs.
func (p *Provider) lockPub() {
	p.pubPending.Add(1)
	p.pubMu.Lock()
}

// unlockPub releases the publish order lock. The caller has finished its
// changelog appends, so it no longer counts as pending commit work.
func (p *Provider) unlockPub() {
	p.pubMu.Unlock()
	p.pubPending.Add(-1)
}

// deliveryTurnstile hands the publish order over to the delivery stage.
// Tickets are issued under pubMu, so ticket order equals publish order;
// holders then deliver outside the lock, one at a time, in ticket order.
type deliveryTurnstile struct {
	mu    sync.Mutex
	cond  *sync.Cond
	next  uint64 // next ticket to issue
	serve uint64 // ticket currently allowed to deliver
}

// ticket issues the next delivery ticket. Call while holding pubMu.
func (t *deliveryTurnstile) ticket() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	t.next++
	return n
}

// wait blocks until ticket n is served.
func (t *deliveryTurnstile) wait(n uint64) {
	t.mu.Lock()
	for t.serve != n {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// done passes the turn to the next ticket.
func (t *deliveryTurnstile) done() {
	t.mu.Lock()
	t.serve++
	t.cond.Broadcast()
	t.mu.Unlock()
}

// delivery is one delivery collected under pubMu and performed by the
// delivery stage: one changeset push (or one coalesced replay batch of
// them) addressed to every member of an interest group.
type delivery struct {
	// subs are the receiving subscribers — one interest group. Group
	// members share the changeset and its sequence.
	subs []string
	sync bool
	// pushes are delivered in order: one per publish, several (ascending
	// sequence) for a coalesced resume replay.
	pushes []pushItem
}

// pushItem is one changeset push. A publish builds it with both forms of
// the changeset; a replay of a changelog record starts with the encoding
// only (parseRecord re-encodes a legacy JSON record's changeset), and a
// reset fill (resetDelivery) with the struct only. The missing form is
// derived when a receiver needs it: the struct for in-process subscribers
// (Attach), the encoding for push frames.
type pushItem struct {
	seq   uint64
	reset bool
	// pubNano is the publish-time wall clock carried on live pushes for the
	// receiver's end-to-end propagation-lag histogram; 0 on resume replays.
	pubNano int64
	cs      *core.Changeset
	enc     []byte
}

func (u *pushItem) changeset() (*core.Changeset, error) {
	if u.cs == nil {
		cs, _, err := core.DecodeChangeset(u.enc)
		if err != nil {
			return nil, fmt.Errorf("provider: push %d: %w", u.seq, err)
		}
		u.cs = cs
	}
	return u.cs, nil
}

func (u *pushItem) encoded() []byte {
	if u.enc == nil {
		u.enc = core.AppendChangeset(nil, u.cs)
	}
	return u.enc
}

// deliverInTurn waits for the operation's turn at the delivery stage,
// performs its deliveries in order, and passes the turn on. The ticket
// must have been issued while the operation still held pubMu.
func (p *Provider) deliverInTurn(t uint64, dels []delivery) {
	m := p.met.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	p.turn.wait(t)
	defer p.turn.done()
	if m != nil {
		m.turnWait.ObserveSince(t0)
		t0 = time.Now()
	}
	for _, d := range dels {
		p.deliver(d)
	}
	if m != nil && len(dels) > 0 {
		m.fanout.ObserveSince(t0)
	}
}

// unlockPubAndDeliver releases the publish lock and performs the collected
// deliveries in publish order. Deliveries stay synchronous from the
// caller's point of view — the operation returns only after its changesets
// reached every attached channel — but they no longer hold pubMu, so the
// next operation's filter run proceeds concurrently.
func (p *Provider) unlockPubAndDeliver(dels []delivery) {
	t := p.turn.ticket()
	p.unlockPub()
	p.deliverInTurn(t, dels)
}

// New creates an MDP with a fresh filter engine whose changelog lives in a
// private temporary directory (mdv-provider-*), which Close removes. The
// log is never fsynced: the directory dies with the process, so an fsync
// would buy nothing. Use OpenDurable for a provider that survives a
// restart.
func New(name string, schema *rdf.Schema) (*Provider, error) {
	dir, err := os.MkdirTemp("", "mdv-provider-*")
	if err != nil {
		return nil, fmt.Errorf("provider: %w", err)
	}
	p, err := OpenDurable(name, schema, dir, DurableOptions{Sync: changelog.SyncNone})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p.dur.temp = true
	return p, nil
}

// newFromEngine wraps an engine as a provider; OpenDurable attaches its
// changelog.
func newFromEngine(name string, engine *core.Engine) *Provider {
	p := &Provider{
		name:       name,
		attached:   map[string][]ApplyFunc{},
		wireAttach: map[string][]*wire.ServerConn{},
		delStats:   map[string]*subscriberCounters{},
		followers:  map[string]*followerState{},
	}
	p.eng.Store(engine)
	p.epoch.Store(1)
	p.turn.cond = sync.NewCond(&p.turn.mu)
	return p
}

// subscriberCounters are one subscriber's cumulative delivery health
// numbers (guarded by Provider.mu).
type subscriberCounters struct {
	enqueued    uint64 // changesets handed to a push queue
	dropped     uint64 // changesets lost to queue-overflow disconnects
	disconnects uint64 // push-channel losses, any cause
	lastSeq     uint64 // last published changelog sequence
}

func (p *Provider) countersLocked(subscriber string) *subscriberCounters {
	c := p.delStats[subscriber]
	if c == nil {
		c = &subscriberCounters{}
		p.delStats[subscriber] = c
	}
	return c
}

// SaveSnapshot writes the provider's full engine state. Registrations are
// quiesced for the duration (the engine serializes with its own lock).
func (p *Provider) SaveSnapshot(w io.Writer) error {
	return p.Engine().Save(w)
}

// Name returns the provider's name.
func (p *Provider) Name() string { return p.name }

// Engine exposes the filter engine (tests, benchmarks).
func (p *Provider) Engine() *core.Engine { return p.eng.Load() }

// Replica reports whether this provider is a follower MDP.
func (p *Provider) Replica() bool { return p.replica.Load() }

// Role returns "replica" on a follower and "primary" otherwise.
func (p *Provider) Role() string {
	if p.replica.Load() {
		return "replica"
	}
	return "primary"
}

// Attach registers a delivery callback for a subscriber. Every published
// changeset addressed to that subscriber is passed to apply. In-process
// LMRs attach a direct function; the wire server attaches a push wrapper.
func (p *Provider) Attach(subscriber string, apply ApplyFunc) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attached[subscriber] = append(p.attached[subscriber], apply)
	return nil
}

// Detach removes all delivery callbacks of a subscriber.
func (p *Provider) Detach(subscriber string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.attached, subscriber)
	delete(p.wireAttach, subscriber)
}

// attachWire registers a wire connection as a subscriber's push channel.
func (p *Provider) attachWire(subscriber string, conn *wire.ServerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wireAttach[subscriber] = append(p.wireAttach[subscriber], conn)
}

// publishLocked sequences a publish set: every changeset is appended to
// the changelog as a publish record and the delivered-watermark is claimed
// over its sequence. The caller must hold
// pubMu. The collected deliveries are returned for the delivery stage (see
// unlockPubAndDeliver) — nothing is handed to a subscriber here, so the
// claim-before-handoff invariant holds: by the time a delivery leaves this
// operation's turnstile turn, its sequence is durably claimed. The
// returned sequence is the highest one appended (0 for an empty set), which
// the caller passes to WaitDurable before acknowledging the operation. On a
// mid-batch error the deliveries collected so far are still returned; the
// caller delivers them (their publish records exist) and then fails.
func (p *Provider) publishLocked(ps *core.PublishSet) (uint64, []delivery, error) {
	if ps == nil {
		return 0, nil, nil
	}
	var maxSeq uint64
	var dels []delivery
	pubNano := time.Now().UnixNano()
	// One record, one sequence, one delivery per interest group — the
	// lock-held append cost and the fsynced bytes scale with distinct
	// groups, not subscribers. Group order is deterministic (sorted by
	// first member), so publish records replay in a stable order across
	// recovery runs.
	for _, g := range ps.Groups {
		u := pushItem{cs: g.Changeset, pubNano: pubNano}
		// The publish record and the push frame carry the same changeset
		// bytes: encoded here, once per group.
		var err error
		u.seq, u.enc, err = p.appendPubLocked(g.Members, g.Changeset)
		if err != nil {
			return maxSeq, dels, err
		}
		maxSeq = u.seq
		// The push reaches the subscriber before this operation's
		// group-commit fsync returns, so the delivered-watermark must
		// durably cover its sequence first (no-op within a claimed chunk).
		if err := p.claimDeliveredLocked(u.seq); err != nil {
			return maxSeq, dels, err
		}
		dels = append(dels, delivery{subs: g.Members, pushes: []pushItem{u}})
	}
	if m := p.met.Load(); m != nil && len(ps.Groups) > 0 {
		m.groupsPerPublish.Observe(float64(len(ps.Groups)))
	}
	return maxSeq, dels, nil
}

// deliver pushes one changeset to every attached channel of the
// subscriber. Callers run on the delivery stage (deliverInTurn), which
// serializes deliveries in publish order without holding pubMu. Wire
// delivery is asynchronous: the changeset is queued on the connection's
// bounded outbound queue and a writer goroutine drains it, so the publish
// path never blocks on a peer's TCP window. With sync false (live
// publishes) a full queue means a slow subscriber: the connection is
// dropped and the changeset with it — the subscriber reconnects and
// resumes gap-free from its changelog cursor. With sync true (resume
// replays, which can exceed any queue bound while the receiver is actively
// draining) the enqueue blocks instead.
func (p *Provider) deliver(d delivery) {
	type fnTarget struct {
		subscriber string
		fn         ApplyFunc
	}
	type connTarget struct {
		subscriber string
		conn       *wire.ServerConn
	}
	var fns []fnTarget
	var conns []connTarget
	lastSeq := d.pushes[len(d.pushes)-1].seq
	p.mu.Lock()
	for _, subscriber := range d.subs {
		for _, fn := range p.attached[subscriber] {
			fns = append(fns, fnTarget{subscriber, fn})
		}
		for _, c := range p.wireAttach[subscriber] {
			conns = append(conns, connTarget{subscriber, c})
		}
		counters := p.countersLocked(subscriber)
		if lastSeq > counters.lastSeq {
			counters.lastSeq = lastSeq
		}
	}
	p.mu.Unlock()
	report := func(subscriber string, err error) {
		if err != nil && p.OnDeliveryError != nil {
			p.OnDeliveryError(subscriber, err)
		}
	}
	for _, t := range fns {
		for i := range d.pushes {
			u := &d.pushes[i]
			cs, err := u.changeset()
			if err == nil {
				err = t.fn(u.seq, u.reset, cs)
			}
			report(t.subscriber, err)
		}
	}
	if len(conns) == 0 {
		return
	}
	// Frame the pushes once; every member connection enqueues the same
	// buffer (the group shares one sequence, so frames need no per-member
	// stamping).
	elems := make([]wire.EncodedPush, len(d.pushes))
	for i := range d.pushes {
		u := &d.pushes[i]
		elems[i] = wire.EncodedPush{Seq: u.seq, Reset: u.reset, PubUnixNano: u.pubNano, Changeset: u.encoded()}
	}
	frame, err := wire.EncodePushFrame(elems)
	if err != nil {
		for _, t := range conns {
			report(t.subscriber, err)
		}
		return
	}
	if len(conns) > 1 {
		p.encodeSavedBytes.Add(uint64(len(frame)) * uint64(len(conns)-1))
	}
	// Changesets handed to a queue per push: batches count each element.
	perPush := uint64(len(d.pushes))
	// Counter updates accumulate locally and land under ONE p.mu
	// acquisition, instead of re-locking per connection.
	enqueued := map[string]uint64{}
	dropped := map[string]uint64{}
	for _, t := range conns {
		var err error
		if d.sync {
			err = t.conn.NotifySync(frame)
		} else {
			err = t.conn.Notify(frame)
		}
		if err != nil {
			p.detachConn(t.subscriber, t.conn)
			if errors.Is(err, wire.ErrSlowSubscriber) {
				dropped[t.subscriber] += perPush
			}
		} else {
			enqueued[t.subscriber] += perPush
		}
		report(t.subscriber, err)
	}
	if len(enqueued) > 0 || len(dropped) > 0 {
		p.mu.Lock()
		for subscriber, n := range enqueued {
			p.countersLocked(subscriber).enqueued += n
		}
		for subscriber, n := range dropped {
			p.countersLocked(subscriber).dropped += n
		}
		p.mu.Unlock()
	}
}

// RegisterDocument registers one document. See RegisterDocuments.
func (p *Provider) RegisterDocument(doc *rdf.Document) error {
	return p.RegisterDocuments([]*rdf.Document{doc})
}

// RegisterDocuments registers a batch: runs the filter and publishes the
// resulting changesets.
func (p *Provider) RegisterDocuments(docs []*rdf.Document) error {
	return p.registerDocuments(docs, nil)
}

// registerDocuments registers docs. wdocs is their RDF/XML when the request
// carried it, which the changelog record holds as is: docs were parsed from
// exactly those bytes, so a replay rebuilds the same documents. Without it
// the record's XML is serialized from docs.
func (p *Provider) registerDocuments(docs []*rdf.Document, wdocs []wire.Doc) error {
	if p.replica.Load() {
		// A follower's engine is driven exclusively by the replicated
		// changelog; the write goes to the primary and comes back as
		// streamed records.
		w, err := p.writeProxy()
		if err != nil {
			return err
		}
		return w.RegisterDocuments(docs)
	}
	_, err := p.write(&logRecord{Kind: recRegister, docs: docs, Docs: wdocs})
	return err
}

// DeleteDocument removes a document and publishes the resulting changesets.
func (p *Provider) DeleteDocument(uri string) error {
	if p.replica.Load() {
		w, err := p.writeProxy()
		if err != nil {
			return err
		}
		return w.DeleteDocument(uri)
	}
	_, err := p.write(&logRecord{Kind: recDelete, URI: uri})
	return err
}

// Subscribe registers a subscription and returns its id. The initial cache
// fill is published like every other changeset: the subscriber's attached
// delivery channels receive it, in order with all other published
// changesets.
func (p *Provider) Subscribe(subscriber, rule string) (int64, error) {
	if p.replica.Load() {
		// Proxied to the primary: the subscription is logged there and
		// comes back through the stream, so this follower's engine (and
		// every other replica's) registers it too. The initial fill is
		// delivered to the subscriber's channels attached HERE when the
		// replicated publish record arrives, exactly as on a primary.
		w, err := p.writeProxy()
		if err != nil {
			return 0, err
		}
		return w.Subscribe(subscriber, rule)
	}
	return p.write(&logRecord{Kind: recSubscribe, Subscriber: subscriber, Rule: rule})
}

// Unsubscribe removes a subscription. It participates in the publish order
// and the changelog like every other input operation.
func (p *Provider) Unsubscribe(subID int64) error {
	if p.replica.Load() {
		w, err := p.writeProxy()
		if err != nil {
			return err
		}
		return w.Unsubscribe(subID)
	}
	_, err := p.write(&logRecord{Kind: recUnsubscribe, SubID: subID})
	return err
}

// write runs one input operation on the primary: under pubMu it appends the
// operation's record, applies it to the engine and
// sequences its publish set; it then delivers in publish order and, once
// the records are durable, compacts if the log has outgrown its snapshot
// (compactIfGrown). Unsubscribe and named-rule registration
// publish nothing and release pubMu without a delivery ticket; the other
// operations take one even when they publish nothing. A subscribe returns
// its subscription id.
func (p *Provider) write(rec *logRecord) (int64, error) {
	p.lockPub()
	if rec.Kind == recRegister && rec.Docs == nil {
		rec.Docs = encodeDocs(rec.docs)
	}
	durSeq, err := p.appendRecord(rec)
	if err != nil {
		p.unlockPub()
		return 0, err
	}
	ps, subID, err := p.applyOp(rec)
	if err != nil {
		p.unlockPub()
		return 0, err
	}
	if rec.Kind == recUnsubscribe || rec.Kind == recNamedRule {
		p.unlockPub()
	} else {
		pubSeq, dels, pubErr := p.publishLocked(ps)
		p.unlockPubAndDeliver(dels)
		if pubErr != nil {
			return 0, pubErr
		}
		durSeq = max(durSeq, pubSeq)
	}
	if err := p.awaitDurable(durSeq); err != nil {
		return 0, err
	}
	p.compactIfGrown()
	return subID, nil
}

// applyOp applies one input-operation record to the engine: live writes,
// recovery and a replica's stream all run an operation through it. It
// returns the operation's publish set, and for a subscribe also the
// subscription id; its initial fill is published as a one-subscriber set
// when it is not empty.
func (p *Provider) applyOp(rec *logRecord) (ps *core.PublishSet, subID int64, err error) {
	eng := p.Engine()
	switch rec.Kind {
	case recRegister:
		docs := rec.docs
		if docs == nil {
			if docs, err = decodeDocs(rec.Docs); err != nil {
				return nil, 0, err
			}
		}
		ps, err = eng.RegisterDocuments(docs)
	case recDelete:
		ps, err = eng.DeleteDocument(rec.URI)
	case recSubscribe:
		var initial *core.Changeset
		subID, initial, err = eng.Subscribe(rec.Subscriber, rec.Rule)
		if err == nil && initial != nil && !initial.Empty() {
			ps = core.NewSingleSubscriberSet(rec.Subscriber, initial)
		}
	case recUnsubscribe:
		err = eng.Unsubscribe(rec.SubID)
	case recNamedRule:
		err = eng.RegisterNamedRule(rec.Name, rec.Rule)
	default:
		err = fmt.Errorf("provider: unknown op kind %q", rec.Kind)
	}
	return ps, subID, err
}

// Browse lists resources of a class (paper §2.2's user browsing at an MDP).
func (p *Provider) Browse(class, contains string) ([]*rdf.Resource, error) {
	return p.Engine().Browse(class, contains)
}

// GetDocument returns a registered document.
func (p *Provider) GetDocument(uri string) (*rdf.Document, error) {
	return p.Engine().StoredDocument(uri)
}

// RegisterNamedRule stores a rule usable as a search extension. It is
// logged like every other input operation, so it survives restarts and
// replicates to followers.
func (p *Provider) RegisterNamedRule(name, rule string) error {
	if p.replica.Load() {
		w, err := p.writeProxy()
		if err != nil {
			return err
		}
		return w.RegisterNamedRule(name, rule)
	}
	_, err := p.write(&logRecord{Kind: recNamedRule, Name: name, Rule: rule})
	return err
}

func encodeDocs(docs []*rdf.Document) []wire.Doc {
	out := make([]wire.Doc, len(docs))
	for i, d := range docs {
		out[i] = wire.Doc{URI: d.URI, XML: rdf.DocumentString(d)}
	}
	return out
}

func decodeDocs(wdocs []wire.Doc) ([]*rdf.Document, error) {
	docs := make([]*rdf.Document, len(wdocs))
	for i, wd := range wdocs {
		d, err := rdf.ParseDocumentString(wd.URI, wd.XML)
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// Serve starts the provider's wire server on addr ("host:0" for an
// ephemeral port) with a zero wire.Config. The returned address is the
// actual listen address.
func (p *Provider) Serve(addr string) (string, error) {
	return p.ServeConfig(addr, wire.Config{})
}

// ServeConfig starts the provider's wire server with explicit
// fault-tolerance settings (heartbeats, I/O deadlines, per-subscriber
// send-queue bounds).
func (p *Provider) ServeConfig(addr string, cfg wire.Config) (string, error) {
	if cfg.EpochFn == nil {
		cfg.EpochFn = p.Epoch
	}
	srv, err := wire.NewServerConfig(addr, p.handle, cfg)
	if err != nil {
		return "", err
	}
	srv.OnDisconnect = func(conn *wire.ServerConn) {
		switch tag := conn.Tag.Load().(type) {
		case string:
			if tag != "" {
				p.detachConn(tag, conn)
			}
		case followerTag:
			p.followerDisconnected(string(tag), conn)
		}
	}
	p.mu.Lock()
	p.server = srv
	if p.advertise == "" {
		p.advertise = srv.Addr()
	}
	p.mu.Unlock()
	return srv.Addr(), nil
}

// SetAdvertiseAddr sets the address this node reports as its own in
// topology responses (useful when the listen address is not the one peers
// should dial). Defaults to the wire server's listen address.
func (p *Provider) SetAdvertiseAddr(addr string) {
	p.mu.Lock()
	p.advertise = addr
	p.mu.Unlock()
}

// Close stops the wire server, if running, and closes the changelog
// (flushing and, unless SyncNone, fsyncing its tail). A provider made by
// New also removes its directory. A running compaction finishes first;
// later ones fail.
func (p *Provider) Close() error {
	p.dur.compactMu.Lock()
	p.dur.closed = true
	p.dur.compactMu.Unlock()
	p.mu.Lock()
	srv := p.server
	p.server = nil
	// Closing the follower readers (and, below, the server's connections
	// and the log) unblocks every streamer goroutine wherever it waits.
	for _, fs := range p.followers {
		if fs.reader != nil {
			fs.reader.Close()
		}
	}
	p.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	if cerr := p.dur.log.Close(); err == nil {
		err = cerr
	}
	p.streamWG.Wait()
	if p.dur.temp {
		if rerr := os.RemoveAll(p.dur.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// detachConn drops a disconnected push channel, counting the loss once
// (detachConn is reached both from failed deliveries and from the wire
// server's disconnect callback; only the call that actually removes the
// conn counts).
func (p *Provider) detachConn(subscriber string, conn *wire.ServerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.wireAttach[subscriber]
	for i, c := range list {
		if c == conn {
			p.wireAttach[subscriber] = append(list[:i], list[i+1:]...)
			p.countersLocked(subscriber).disconnects++
			break
		}
	}
	if len(p.wireAttach[subscriber]) == 0 {
		delete(p.wireAttach, subscriber)
	}
}

// DeliveryStats reports per-subscriber delivery health: live push
// connections with their queue occupancy, cumulative enqueue/drop/
// disconnect counters, heartbeat RTT, and the publish-vs-ack lag that the
// changelog tracks.
func (p *Provider) DeliveryStats() *wire.DeliveryStatsResponse {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make(map[string]bool, len(p.delStats)+len(p.wireAttach))
	for name := range p.delStats {
		names[name] = true
	}
	for name := range p.wireAttach {
		names[name] = true
	}
	resp := &wire.DeliveryStatsResponse{Role: p.Role(), Epoch: p.Epoch(), LogSeq: p.dur.log.LastSeq()}
	for name, fs := range p.followers {
		fd := wire.FollowerDelivery{
			Follower:    name,
			StreamedSeq: fs.streamed.Load(),
			AckedSeq:    fs.acked,
			Connected:   fs.connected,
		}
		if resp.LogSeq > fd.AckedSeq {
			fd.LagSeqs = resp.LogSeq - fd.AckedSeq
		}
		resp.Followers = append(resp.Followers, fd)
	}
	sort.Slice(resp.Followers, func(i, j int) bool {
		return resp.Followers[i].Follower < resp.Followers[j].Follower
	})
	for name := range names {
		counters := p.countersLocked(name)
		sd := wire.SubscriberDelivery{
			Subscriber:   name,
			Enqueued:     counters.enqueued,
			Dropped:      counters.dropped,
			Disconnects:  counters.disconnects,
			PublishedSeq: counters.lastSeq,
		}
		sd.AckedSeq = p.dur.acked[name]
		if sd.PublishedSeq > sd.AckedSeq {
			sd.Lag = sd.PublishedSeq - sd.AckedSeq
		}
		for i, c := range p.wireAttach[name] {
			sd.Conns++
			sd.QueueDepth += c.QueueDepth()
			sd.QueueCap += c.QueueCap()
			if rtt := c.RTT().Microseconds(); rtt > sd.RTTMicros {
				sd.RTTMicros = rtt
			}
			if idle := c.IdleFor().Milliseconds(); i == 0 || idle < sd.IdleMillis {
				sd.IdleMillis = idle
			}
		}
		resp.Subscribers = append(resp.Subscribers, sd)
	}
	sort.Slice(resp.Subscribers, func(i, j int) bool {
		return resp.Subscribers[i].Subscriber < resp.Subscribers[j].Subscriber
	})
	return resp
}

func (p *Provider) handle(conn *wire.ServerConn, kind string, body json.RawMessage) (interface{}, error) {
	switch kind {
	case wire.KindRegisterDocuments:
		var req wire.RegisterDocumentsRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if err := p.fenceWrite(req.Epoch); err != nil {
			return nil, err
		}
		docs, err := decodeDocs(req.Docs)
		if err != nil {
			return nil, err
		}
		return nil, p.registerDocuments(docs, req.Docs)
	case wire.KindDeleteDocument:
		var req wire.DeleteDocumentRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if err := p.fenceWrite(req.Epoch); err != nil {
			return nil, err
		}
		return nil, p.DeleteDocument(req.URI)
	case wire.KindSubscribe:
		var req wire.SubscribeRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if err := p.fenceWrite(req.Epoch); err != nil {
			return nil, err
		}
		id, err := p.Subscribe(req.Subscriber, req.Rule)
		if err != nil {
			return nil, err
		}
		return &wire.SubscribeResponse{SubID: id}, nil
	case wire.KindUnsubscribe:
		var req wire.UnsubscribeRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if err := p.fenceWrite(req.Epoch); err != nil {
			return nil, err
		}
		return nil, p.Unsubscribe(req.SubID)
	case wire.KindBrowse:
		var req wire.BrowseRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		rs, err := p.Browse(req.Class, req.Contains)
		if err != nil {
			return nil, err
		}
		return &wire.ResourcesResponse{Resources: rs}, nil
	case wire.KindGetDocument:
		var req wire.GetDocumentRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		doc, err := p.GetDocument(req.URI)
		if err != nil {
			return nil, err
		}
		return &wire.Doc{URI: doc.URI, XML: rdf.DocumentString(doc)}, nil
	case wire.KindAttach:
		var req wire.AttachRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if req.Subscriber == "" {
			return nil, fmt.Errorf("provider: attach requires a subscriber name")
		}
		conn.Tag.Store(req.Subscriber)
		p.attachWire(req.Subscriber, conn)
		return nil, nil
	case wire.KindResume:
		var req wire.ResumeRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if req.Subscriber == "" {
			return nil, fmt.Errorf("provider: resume requires a subscriber name")
		}
		latest, err := p.Resume(req.Subscriber, req.FromSeq)
		if err != nil {
			return nil, err
		}
		return &wire.ResumeResponse{LatestSeq: latest}, nil
	case wire.KindAck:
		var req wire.AckRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, p.Ack(req.Subscriber, req.Seq)
	case wire.KindNamedRule:
		var req wire.NamedRuleRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if err := p.fenceWrite(req.Epoch); err != nil {
			return nil, err
		}
		return nil, p.RegisterNamedRule(req.Name, req.Rule)
	case wire.KindReplSnapshot:
		var req wire.ReplSnapshotRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return p.handleReplSnapshot(conn, &req)
	case wire.KindReplStream:
		var req wire.ReplStreamRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return p.handleReplStream(conn, &req)
	case wire.KindReplAck:
		var req wire.ReplAckRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, p.handleReplAck(&req)
	case wire.KindPromote:
		epoch, err := p.Promote()
		if err != nil {
			return nil, err
		}
		return &wire.PromoteResponse{Epoch: epoch}, nil
	case wire.KindTopology:
		return p.Topology(), nil
	case wire.KindEpochAnnounce:
		var req wire.EpochAnnounceRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		p.ObserveEpoch(req.Epoch, req.Primary)
		return &wire.EpochAnnounceResponse{Epoch: p.Epoch()}, nil
	case wire.KindStats:
		return p.Engine().Stats(), nil
	case wire.KindDeliveryStats:
		return p.DeliveryStats(), nil
	case wire.KindMetrics:
		var text string
		if reg := p.reg.Load(); reg != nil {
			text = reg.Text()
		}
		return &wire.MetricsResponse{Text: text}, nil
	default:
		return nil, fmt.Errorf("provider: unknown request kind %q", kind)
	}
}
