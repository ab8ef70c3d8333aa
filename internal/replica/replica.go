// Package replica runs the follower side of MDP replication: it dials the
// primary, bootstraps from a shipped snapshot when the local changelog
// copy has fallen below the primary's retained log, applies the streamed
// changelog records through the provider (ApplyReplicated), forwards the
// replica's write operations to the primary, and acknowledges the durable
// applied prefix so the primary can truncate its log and report lag.
//
// The follower owns reconnection: on any stream loss it re-dials with
// jittered exponential backoff and renegotiates from its own log tail, so
// a primary restart (or a long partition that outruns the primary's log
// retention, forcing a fresh snapshot) heals without operator action.
//
// Failover: the follower carries the full candidate endpoint list. When
// its primary is gone it probes the candidates and re-points to whichever
// node now answers as primary of an equal-or-higher epoch (an operator
// promotion, or another follower's deadman). With Options.AutoPromote set,
// a follower that cannot reach any primary for that long promotes ITSELF —
// but only if no other reachable follower is more caught up (ties broken
// by lowest name), so at most one node wins the deadman race.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/backoff"
	"mdv/internal/client"
	"mdv/internal/metrics"
	"mdv/internal/provider"
	"mdv/internal/wire"
)

// Options tune a follower.
type Options struct {
	// Name is the follower name announced to the primary (shown in its
	// follower stats and metrics). Defaults to the provider's name.
	Name string
	// Primary is the primary MDP's wire address (the first one tried).
	Primary string
	// Primaries lists every endpoint that may be — or become — the
	// primary: the candidate set for re-pointing after a failover and for
	// the auto-promote deadman probe. Primary is implicitly included.
	Primaries []string
	// Client carries the fault-tolerance settings for both connections
	// (heartbeats detect a dead primary; the reconnect loop takes over).
	Client client.Config
	// AckInterval is how often the follower fsyncs its log copy and
	// acknowledges the durable prefix to the primary. Zero means 100ms.
	AckInterval time.Duration
	// Backoff is the reconnect schedule (zero value = 1s→30s jittered).
	Backoff backoff.Backoff
	// AutoPromote arms the deadman timer when positive: a follower that
	// cannot reach any primary for this long probes the candidate set and
	// promotes itself iff it is the most caught-up reachable follower
	// (ties broken by lowest name). Off by default — promotion is an
	// explicit operator action unless a deployment opts in.
	AutoPromote time.Duration
	// Logf, if set, receives connection lifecycle and apply errors.
	Logf func(format string, args ...interface{})
}

// Follower replicates one provider from a primary until Close.
type Follower struct {
	prov *provider.Provider
	opts Options
	// cands is the deduplicated candidate endpoint list (Primary first).
	cands []string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	stream  *wire.Client
	proxy   *client.MDP
	primary string // endpoint currently believed to be the primary

	connected  atomic.Bool
	bootstraps atomic.Uint64
	ackedSeq   atomic.Uint64
	promoted   atomic.Bool
	// lagNanos is the apply-time minus send-time of the last streamed
	// record: the propagation delay of the replication stream itself.
	lagNanos atomic.Int64
}

// Start begins replicating prov (which must have been opened with
// DurableOptions.Replica, or demoted into that role) from the primary at
// opts.Primary, failing over across opts.Primaries.
func Start(prov *provider.Provider, opts Options) (*Follower, error) {
	if !prov.Replica() {
		return nil, errors.New("replica: provider was not opened as a replica (DurableOptions.Replica)")
	}
	if opts.Primary == "" && len(opts.Primaries) > 0 {
		opts.Primary = opts.Primaries[0]
	}
	if opts.Primary == "" {
		return nil, errors.New("replica: no primary address")
	}
	if opts.Name == "" {
		opts.Name = prov.Name()
	}
	if opts.AckInterval <= 0 {
		opts.AckInterval = 100 * time.Millisecond
	}
	f := &Follower{prov: prov, opts: opts, primary: opts.Primary}
	seen := map[string]bool{}
	for _, addr := range append([]string{opts.Primary}, opts.Primaries...) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			f.cands = append(f.cands, addr)
		}
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	// Promote must be able to halt this session from within it, so the
	// stopper never joins the run goroutine.
	prov.SetReplicationStopper(f.halt)
	prov.SetTopologyHint(opts.Primary, f.cands)
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// halt stops the replication session without joining the run goroutine.
// Safe to call from inside the session itself (provider.Promote runs it).
func (f *Follower) halt() {
	f.cancel()
	f.mu.Lock()
	if f.stream != nil {
		f.stream.Close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	f.mu.Unlock()
}

// Close stops replicating: the connections are closed and the run loop
// joined. The provider itself stays open (and keeps serving reads).
func (f *Follower) Close() error {
	f.halt()
	f.wg.Wait()
	return nil
}

// Connected reports whether the replication stream is currently up.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Promoted reports whether this follower won its auto-promote deadman and
// now runs as primary (the follower loop has exited).
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Primary returns the endpoint currently believed to be the primary.
func (f *Follower) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

func (f *Follower) setPrimary(addr string) {
	f.mu.Lock()
	f.primary = addr
	f.mu.Unlock()
	f.prov.SetTopologyHint(addr, f.cands)
}

// AppliedSeq returns the last changelog sequence applied locally.
func (f *Follower) AppliedSeq() uint64 { return f.prov.LogSeq() }

// AckedSeq returns the last sequence acknowledged to the primary.
func (f *Follower) AckedSeq() uint64 { return f.ackedSeq.Load() }

// Bootstraps returns how many snapshot bootstraps this follower has run.
func (f *Follower) Bootstraps() uint64 { return f.bootstraps.Load() }

// Lag returns the stream propagation delay of the last applied record:
// apply time minus the primary's send time.
func (f *Follower) Lag() time.Duration { return time.Duration(f.lagNanos.Load()) }

func (f *Follower) logf(format string, args ...interface{}) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// probeCfg bounds topology probes so a black-holed candidate cannot hang
// the failover logic.
func (f *Follower) probeCfg() client.Config {
	cfg := f.opts.Client
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	return cfg
}

func (f *Follower) run() {
	defer f.wg.Done()
	bo := f.opts.Backoff
	lastUp := time.Now()
	for {
		err := f.session(&bo)
		if f.connected.Load() {
			lastUp = time.Now()
		}
		f.connected.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if f.repoint() {
			// A live primary exists (possibly a new one); the deadman only
			// counts time with NO primary reachable anywhere.
			lastUp = time.Now()
		} else if f.opts.AutoPromote > 0 && time.Since(lastUp) >= f.opts.AutoPromote {
			if f.tryAutoPromote() {
				f.promoted.Store(true)
				return
			}
		}
		delay := bo.Next()
		f.logf("replica %s: stream to %s lost (%v); redialing in %v", f.opts.Name, f.Primary(), err, delay)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// repoint probes the candidate set and, if some node answers as primary of
// an equal-or-higher epoch, points the next session at it. Returns whether
// any current primary is reachable. With a single candidate there is
// nowhere else to point, but the probe still feeds the deadman.
func (f *Follower) repoint() bool {
	addr, topo := ProbeForPrimary(f.cands, f.probeCfg())
	if topo == nil || topo.Epoch < f.prov.Epoch() {
		return false
	}
	if cur := f.Primary(); addr != cur {
		f.logf("replica %s: re-pointing from %s to promoted primary %s (epoch %d)", f.opts.Name, cur, addr, topo.Epoch)
		f.setPrimary(addr)
	}
	return true
}

// tryAutoPromote runs the deadman election: with no primary reachable from
// here, promote iff no other reachable follower is more caught up (log
// tail, ties broken by lowest name). The losing followers keep probing and
// re-point once the winner serves.
func (f *Follower) tryAutoPromote() bool {
	cfg := f.probeCfg()
	mySeq := f.prov.LogSeq()
	var announce []string
	for _, addr := range f.cands {
		topo := probeTopology(addr, cfg)
		if topo == nil || topo.Name == f.opts.Name {
			continue
		}
		if topo.Role == "primary" && topo.Epoch >= f.prov.Epoch() {
			return false // a primary is reachable after all
		}
		if topo.LogSeq > mySeq || (topo.LogSeq == mySeq && topo.Name < f.opts.Name) {
			f.logf("replica %s: deadman yields to more caught-up follower %s (seq %d vs %d)",
				f.opts.Name, topo.Name, topo.LogSeq, mySeq)
			return false
		}
		announce = append(announce, addr)
	}
	epoch, err := f.prov.Promote()
	if err != nil {
		f.logf("replica %s: deadman promotion failed: %v", f.opts.Name, err)
		return false
	}
	f.logf("replica %s: deadman expired; promoted to primary at epoch %d", f.opts.Name, epoch)
	// Tell the surviving followers immediately so they re-point without
	// waiting out their own probe cycles.
	self := f.prov.PrimaryHint()
	for _, addr := range announce {
		if c, err := client.DialMDPConfig(addr, cfg); err == nil {
			c.AnnounceEpoch(epoch, self)
			c.Close()
		}
	}
	return true
}

// probeTopology fetches one endpoint's topology view (nil if unreachable).
func probeTopology(addr string, cfg client.Config) *wire.TopologyResponse {
	c, err := client.DialMDPConfig(addr, cfg)
	if err != nil {
		return nil
	}
	defer c.Close()
	topo, err := c.Topology()
	if err != nil {
		return nil
	}
	return topo
}

// ProbeForPrimary probes each endpoint and returns the address and
// topology of the highest-epoch node currently serving as primary ("" and
// nil when none answers as one). Supervisors use it on startup to decide
// whether a node restarting from an old primary's state must rejoin as a
// follower instead.
func ProbeForPrimary(addrs []string, cfg client.Config) (string, *wire.TopologyResponse) {
	var bestAddr string
	var best *wire.TopologyResponse
	for _, addr := range addrs {
		topo := probeTopology(addr, cfg)
		if topo == nil || topo.Role != "primary" {
			continue
		}
		if best == nil || topo.Epoch > best.Epoch {
			best, bestAddr = topo, addr
		}
	}
	return bestAddr, best
}

// session runs one connect lifetime: dial, bootstrap if needed, stream,
// ack. It returns when the stream dies or the follower closes.
func (f *Follower) session(bo *backoff.Backoff) error {
	primary := f.Primary()
	cfg := f.opts.Client
	wcfg := wire.Config{
		HeartbeatInterval: cfg.Heartbeat,
		IdleTimeout:       cfg.IdleTimeout,
		WriteTimeout:      cfg.WriteTimeout,
	}
	stream, err := wire.DialConfig(primary, wcfg)
	if err != nil {
		return err
	}
	s := &session{f: f, stream: stream}
	stream.OnPush = s.onPush
	f.mu.Lock()
	f.stream = stream
	f.mu.Unlock()
	defer stream.Close()

	// Bootstrap negotiation: the primary ships a snapshot (as in-order
	// chunk pushes on this connection, all preceding the response) only if
	// our tail has fallen below its retained log — or unconditionally when
	// this node demoted itself with a possibly divergent tail (Force): the
	// sequence numbers alone cannot prove those records match the new
	// primary's history, so only a snapshot rebuild can.
	snapReq := &wire.ReplSnapshotRequest{
		FromSeq: f.prov.LogSeq(),
		Epoch:   f.prov.Epoch(),
		Force:   f.prov.ResyncPending(),
	}
	var snap wire.ReplSnapshotResponse
	if err := stream.Call(wire.KindReplSnapshot, snapReq, &snap); err != nil {
		return fmt.Errorf("bootstrap negotiation: %w", err)
	}
	f.prov.ObserveEpoch(snap.Epoch, primary)
	if snap.Needed {
		data, cerr := s.snapshot()
		if cerr != nil {
			return cerr
		}
		seq, ierr := f.prov.InstallSnapshot(data)
		if ierr != nil {
			return ierr
		}
		f.bootstraps.Add(1)
		f.logf("replica %s: installed bootstrap snapshot covering seq %d (%d bytes)", f.opts.Name, seq, len(data))
	}

	// The write proxy rides its own connection so proxied writes never
	// queue behind the record stream.
	proxy, err := client.DialMDPConfig(primary, cfg)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.proxy = proxy
	f.mu.Unlock()
	defer proxy.Close()
	f.prov.SetWriteProxy(proxy)
	// When the session dies the primary is gone: writes degrade to the
	// typed retryable NoPrimaryError (with topology hints) instead of
	// queueing on a dead connection.
	defer f.prov.SetWriteProxy(nil)

	streamReq := &wire.ReplStreamRequest{Follower: f.opts.Name, FromSeq: f.prov.LogSeq(), Epoch: f.prov.Epoch()}
	var resp wire.ReplStreamResponse
	if err := stream.Call(wire.KindReplStream, streamReq, &resp); err != nil {
		return fmt.Errorf("stream negotiation: %w", err)
	}
	// Adopt the primary's term and stamp proxied writes with it: if the
	// primary is later deposed, our forwarded writes are fenced at its
	// stale term instead of landing on a dead history.
	f.prov.ObserveEpoch(resp.Epoch, primary)
	proxy.SetWriteEpoch(resp.Epoch)
	f.connected.Store(true)
	bo.Reset()
	f.logf("replica %s: streaming from %s (local tail %d, primary tail %d, epoch %d)",
		f.opts.Name, primary, f.prov.LogSeq(), resp.LatestSeq, resp.Epoch)

	// Ack loop: batch-fsync the local log copy and acknowledge the durable
	// prefix. Acks both bound the primary's truncation and feed its lag
	// metrics, so they keep flowing even when no records arrive.
	ticker := time.NewTicker(f.opts.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.ctx.Done():
			f.ack(stream) // parting ack: report what is durable before leaving
			return nil
		case <-stream.Done():
			return errors.New("connection closed")
		case <-ticker.C:
			if err := f.ack(stream); err != nil {
				return err
			}
		}
	}
}

// ack fsyncs the log copy and reports the durable prefix to the primary.
func (f *Follower) ack(stream *wire.Client) error {
	durable, err := f.prov.SyncLog()
	if err != nil {
		return err
	}
	if durable <= f.ackedSeq.Load() {
		return nil
	}
	req := &wire.ReplAckRequest{Follower: f.opts.Name, Seq: durable, Epoch: f.prov.Epoch()}
	if err := stream.Call(wire.KindReplAck, req, nil); err != nil {
		return err
	}
	f.ackedSeq.Store(durable)
	return nil
}

// session is the per-connection push state: the snapshot chunk buffer and
// the stream handle (so an epoch-fence violation can hang up from the push
// path).
type session struct {
	f      *Follower
	stream *wire.Client
	mu     sync.Mutex
	buf    bytes.Buffer
	done   bool
}

// onPush dispatches server-initiated messages on the stream connection. It
// runs on the connection's read loop, so records apply strictly in arrival
// order and a slow apply backpressures the stream naturally.
func (s *session) onPush(m *wire.Message) {
	switch m.Kind {
	case wire.KindReplRecord:
		var push wire.ReplRecordPush
		if err := json.Unmarshal(m.Body, &push); err != nil {
			s.f.logf("replica %s: bad record push: %v", s.f.opts.Name, err)
			return
		}
		// The epoch fence, follower side: a record stamped below our term
		// comes from a deposed primary that does not know it yet. Tear the
		// session down rather than let one stale record into the verbatim
		// log copy; the reconnect probe will find the real primary.
		if err := s.f.prov.CheckStreamEpoch(push.Epoch); err != nil {
			s.f.logf("replica %s: %v; dropping stream", s.f.opts.Name, err)
			s.stream.Close()
			return
		}
		if err := s.f.prov.ApplyReplicated(push.Seq, push.Rec, push.SentUnixNano); err != nil {
			s.f.logf("replica %s: apply record %d: %v", s.f.opts.Name, push.Seq, err)
			return
		}
		if push.SentUnixNano > 0 {
			if lag := time.Now().UnixNano() - push.SentUnixNano; lag >= 0 {
				s.f.lagNanos.Store(lag)
			}
		}
	case wire.KindReplSnapshotChunk:
		var chunk wire.ReplSnapshotChunk
		if err := json.Unmarshal(m.Body, &chunk); err != nil {
			s.f.logf("replica %s: bad snapshot chunk: %v", s.f.opts.Name, err)
			return
		}
		s.mu.Lock()
		if !s.done {
			s.buf.Write(chunk.Data)
			s.done = chunk.Last
		}
		s.mu.Unlock()
	}
}

// snapshot returns the fully buffered bootstrap snapshot. The chunks were
// pushed before the negotiation response on the same connection, so by the
// time the caller gets here they have all been processed by the read loop.
func (s *session) snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return nil, fmt.Errorf("snapshot transfer incomplete (%d bytes buffered)", s.buf.Len())
	}
	return s.buf.Bytes(), nil
}

// EnableMetrics exports the follower's replication health: connection
// state, applied/acknowledged sequences, stream propagation lag in
// seconds, and snapshot bootstrap count.
func (f *Follower) EnableMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("mdv_replica_connected", "1 while the replication stream is up",
		func() float64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mdv_replica_applied_seq", "last changelog sequence applied from the primary",
		func() float64 { return float64(f.prov.LogSeq()) })
	reg.GaugeFunc("mdv_replica_acked_seq", "last changelog sequence acknowledged to the primary",
		func() float64 { return float64(f.ackedSeq.Load()) })
	reg.GaugeFunc("mdv_replica_lag_seconds", "stream propagation delay of the last applied record",
		func() float64 { return time.Duration(f.lagNanos.Load()).Seconds() })
	reg.SampleFunc("mdv_replica_bootstraps_total", "snapshot bootstraps this follower has run",
		metrics.TypeCounter, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(f.bootstraps.Load())}}
		})
}
