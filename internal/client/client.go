// Package client provides typed network clients for the two MDV server
// tiers: MDP (metadata providers) and LMR (local metadata repositories).
// The MDP client implements lmr.ProviderAPI, so an LMR node works
// identically against an in-process provider and a remote one, and
// provider.WriteProxy, so a replica forwards writes to its primary.
package client

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// ApplyFunc receives one pushed changeset (see provider.ApplyFunc).
type ApplyFunc = func(seq uint64, reset bool, cs *core.Changeset) error

// Config tunes a client connection's fault tolerance. The zero value
// disables all of it (no heartbeat, no deadlines), matching Dial*.
type Config struct {
	// Heartbeat is the ping interval. The client pings the server on this
	// period and closes the connection when inbound silence exceeds the
	// idle bound, so a dead or partitioned provider is detected within a
	// bounded interval; the reconnect loop takes over from there.
	Heartbeat time.Duration
	// IdleTimeout overrides the inbound-silence bound (default 3x
	// Heartbeat).
	IdleTimeout time.Duration
	// WriteTimeout bounds each message write.
	WriteTimeout time.Duration
	// CallTimeout bounds every request/response call that is not given an
	// explicit context (0 = unbounded). Expired calls return
	// context.DeadlineExceeded, which wire.IsRetryable classifies as
	// retryable.
	CallTimeout time.Duration
}

func (c Config) wire() wire.Config {
	return wire.Config{
		HeartbeatInterval: c.Heartbeat,
		IdleTimeout:       c.IdleTimeout,
		WriteTimeout:      c.WriteTimeout,
	}
}

// IsRetryable reports whether a call error is a transport failure worth a
// reconnect-and-retry, as opposed to an application rejection by the
// provider. See wire.IsRetryable.
func IsRetryable(err error) bool { return wire.IsRetryable(err) }

// MDP is a client connection to a metadata provider.
type MDP struct {
	conn *wire.Client
	cfg  Config
	// applyFns receive pushed changesets per attached subscriber.
	mu       sync.Mutex
	applyFns map[string]ApplyFunc
	// prop is the propagation-lag histogram, nil until EnablePushMetrics.
	prop atomic.Pointer[metrics.Histogram]
	// writeEpoch stamps every write request (see SetWriteEpoch); 0 sends
	// writes unstamped (the provider admits them at any term).
	writeEpoch atomic.Uint64
}

// DialMDP connects to an MDP server with a zero Config.
func DialMDP(addr string) (*MDP, error) {
	return DialMDPConfig(addr, Config{})
}

// DialMDPConfig connects to an MDP server with explicit fault-tolerance
// settings.
func DialMDPConfig(addr string, cfg Config) (*MDP, error) {
	conn, err := wire.DialConfig(addr, cfg.wire())
	if err != nil {
		return nil, err
	}
	c := &MDP{conn: conn, cfg: cfg, applyFns: map[string]ApplyFunc{}}
	conn.OnPush = c.onPush
	return c, nil
}

// call runs one request under the configured default call timeout.
func call(conn *wire.Client, cfg Config, kind string, req, out interface{}) error {
	if cfg.CallTimeout <= 0 {
		return conn.Call(kind, req, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.CallTimeout)
	defer cancel()
	return conn.CallContext(ctx, kind, req, out)
}

func (c *MDP) call(kind string, req, out interface{}) error {
	return call(c.conn, c.cfg, kind, req, out)
}

// Close closes the connection.
func (c *MDP) Close() error { return c.conn.Close() }

// Done is closed when the connection terminates.
func (c *MDP) Done() <-chan struct{} { return c.conn.Done() }

// BytesRead returns the total bytes received on the underlying connection,
// including frame headers (benchmarks use it to measure wire amplification).
func (c *MDP) BytesRead() uint64 { return c.conn.BytesRead() }

// PeerEpoch returns the replication term the provider announced in the
// connect handshake (0 when the server predates epochs or is not durable).
func (c *MDP) PeerEpoch() uint64 { return c.conn.PeerEpoch() }

// SetWriteEpoch stamps every subsequent write request with the given term.
// A stamped write is fenced (rejected, never applied) by any node serving
// a different term — the client-side half of split-brain protection. Zero
// clears the stamp.
func (c *MDP) SetWriteEpoch(epoch uint64) { c.writeEpoch.Store(epoch) }

// onPush applies the changesets of a push frame in order; a coalesced
// replay batch applies exactly as if each had arrived as its own push.
func (c *MDP) onPush(m *wire.Message) {
	for i := range m.Pushes {
		c.applyPush(&m.Pushes[i])
	}
}

func (c *MDP) applyPush(push *wire.ChangesetPush) {
	if push.Changeset == nil {
		return
	}
	if h := c.prop.Load(); h != nil && push.PubUnixNano > 0 {
		lag := time.Since(time.Unix(0, push.PubUnixNano)).Seconds()
		if lag < 0 {
			lag = 0
		}
		h.Observe(lag)
	}
	c.mu.Lock()
	fns := make([]ApplyFunc, 0, len(c.applyFns))
	for _, fn := range c.applyFns {
		fns = append(fns, fn)
	}
	c.mu.Unlock()
	// Pushes are not addressed per subscriber on the wire: each attached
	// connection receives only its own subscriber's changesets, so every
	// registered apply function on this connection gets it.
	for _, fn := range fns {
		fn(push.Seq, push.Reset, push.Changeset)
	}
}

// RegisterDocument registers one document at the MDP.
func (c *MDP) RegisterDocument(doc *rdf.Document) error {
	return c.RegisterDocuments([]*rdf.Document{doc})
}

// RegisterDocuments registers a batch of documents at the MDP.
func (c *MDP) RegisterDocuments(docs []*rdf.Document) error {
	req := wire.RegisterDocumentsRequest{Epoch: c.writeEpoch.Load()}
	for _, d := range docs {
		req.Docs = append(req.Docs, wire.Doc{URI: d.URI, XML: rdf.DocumentString(d)})
	}
	return c.call(wire.KindRegisterDocuments, &req, nil)
}

// DeleteDocument removes a document at the MDP.
func (c *MDP) DeleteDocument(uri string) error {
	return c.call(wire.KindDeleteDocument, &wire.DeleteDocumentRequest{URI: uri, Epoch: c.writeEpoch.Load()}, nil)
}

// Subscribe registers a subscription rule. The initial cache fill arrives
// as a push on the subscriber's attached connection.
func (c *MDP) Subscribe(subscriber, rule string) (int64, error) {
	var resp wire.SubscribeResponse
	err := c.call(wire.KindSubscribe, &wire.SubscribeRequest{Subscriber: subscriber, Rule: rule, Epoch: c.writeEpoch.Load()}, &resp)
	return resp.SubID, err
}

// Unsubscribe removes a subscription.
func (c *MDP) Unsubscribe(subID int64) error {
	return c.call(wire.KindUnsubscribe, &wire.UnsubscribeRequest{SubID: subID, Epoch: c.writeEpoch.Load()}, nil)
}

// Attach registers this connection as the subscriber's push channel;
// published changesets are delivered to apply.
func (c *MDP) Attach(subscriber string, apply ApplyFunc) error {
	c.mu.Lock()
	c.applyFns[subscriber] = apply
	c.mu.Unlock()
	return c.call(wire.KindAttach, &wire.AttachRequest{Subscriber: subscriber}, nil)
}

// Resume asks a durable MDP to replay the changesets published for the
// subscriber past fromSeq. The replayed changesets arrive as ordered
// pushes on this connection (Attach first); the returned sequence is the
// one the subscriber is current to afterwards.
func (c *MDP) Resume(subscriber string, fromSeq uint64) (uint64, error) {
	var resp wire.ResumeResponse
	err := c.call(wire.KindResume, &wire.ResumeRequest{Subscriber: subscriber, FromSeq: fromSeq}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.LatestSeq, nil
}

// Ack acknowledges application of pushes up to seq, advancing the MDP's
// changelog truncation watermark for this subscriber.
func (c *MDP) Ack(subscriber string, seq uint64) error {
	return c.call(wire.KindAck, &wire.AckRequest{Subscriber: subscriber, Seq: seq}, nil)
}

// Browse lists resources of a class at the MDP.
func (c *MDP) Browse(class, contains string) ([]*rdf.Resource, error) {
	var resp wire.ResourcesResponse
	err := c.call(wire.KindBrowse, &wire.BrowseRequest{Class: class, Contains: contains}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Resources, nil
}

// GetDocument fetches a registered document.
func (c *MDP) GetDocument(uri string) (*rdf.Document, error) {
	var resp wire.Doc
	if err := c.call(wire.KindGetDocument, &wire.GetDocumentRequest{URI: uri}, &resp); err != nil {
		return nil, err
	}
	return rdf.ParseDocumentString(resp.URI, resp.XML)
}

// RegisterNamedRule registers a rule usable as a search extension.
func (c *MDP) RegisterNamedRule(name, rule string) error {
	return c.call(wire.KindNamedRule, &wire.NamedRuleRequest{Name: name, Rule: rule, Epoch: c.writeEpoch.Load()}, nil)
}

// Stats fetches the provider's engine counters.
func (c *MDP) Stats() (core.Stats, error) {
	var st core.Stats
	err := c.call(wire.KindStats, nil, &st)
	return st, err
}

// RegisterDocumentsContext registers a batch under an explicit context
// (deadline or cancellation).
func (c *MDP) RegisterDocumentsContext(ctx context.Context, docs []*rdf.Document) error {
	req := wire.RegisterDocumentsRequest{Epoch: c.writeEpoch.Load()}
	for _, d := range docs {
		req.Docs = append(req.Docs, wire.Doc{URI: d.URI, XML: rdf.DocumentString(d)})
	}
	return c.conn.CallContext(ctx, wire.KindRegisterDocuments, &req, nil)
}

// SubscribeContext registers a subscription rule under an explicit context.
func (c *MDP) SubscribeContext(ctx context.Context, subscriber, rule string) (int64, error) {
	var resp wire.SubscribeResponse
	err := c.conn.CallContext(ctx, wire.KindSubscribe, &wire.SubscribeRequest{Subscriber: subscriber, Rule: rule, Epoch: c.writeEpoch.Load()}, &resp)
	return resp.SubID, err
}

// EnablePushMetrics registers the end-to-end propagation-lag histogram on
// reg and observes it for every live push carrying a publish timestamp.
// Resume replays (PubUnixNano == 0) are excluded: their delay measures how
// long the subscriber was away, not pipeline health. The lag spans two
// machines' wall clocks; their skew is the measurement's error bar.
func (c *MDP) EnablePushMetrics(reg *metrics.Registry) {
	c.prop.Store(reg.Histogram("mdv_lmr_propagation_seconds",
		"publish-to-receipt delay of live pushed changesets (cross-clock; skew is the error bar)",
		metrics.TimeBuckets))
}

// Metrics fetches the provider's metrics registry rendered as Prometheus
// text (empty when the provider runs with metrics disabled).
func (c *MDP) Metrics() (string, error) {
	var resp wire.MetricsResponse
	if err := c.call(wire.KindMetrics, nil, &resp); err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Topology fetches the node's view of the cluster: role, epoch, primary
// address, and (on a primary) per-follower stream positions.
func (c *MDP) Topology() (*wire.TopologyResponse, error) {
	var resp wire.TopologyResponse
	if err := c.call(wire.KindTopology, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Promote asks the node (a replica) to promote itself to primary of a new
// epoch. Idempotent against a node that is already primary.
func (c *MDP) Promote() (uint64, error) {
	var resp wire.PromoteResponse
	if err := c.call(wire.KindPromote, nil, &resp); err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// AnnounceEpoch informs the node that the given term exists, led by
// primary. A stale primary demotes itself on receipt; the response carries
// the node's resulting term.
func (c *MDP) AnnounceEpoch(epoch uint64, primary string) (uint64, error) {
	var resp wire.EpochAnnounceResponse
	err := c.call(wire.KindEpochAnnounce, &wire.EpochAnnounceRequest{Epoch: epoch, Primary: primary}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// DeliveryStats fetches the provider's per-subscriber delivery health.
func (c *MDP) DeliveryStats() (*wire.DeliveryStatsResponse, error) {
	var resp wire.DeliveryStatsResponse
	if err := c.call(wire.KindDeliveryStats, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ping round-trips a liveness probe to the provider.
func (c *MDP) Ping(ctx context.Context) (time.Duration, error) {
	return c.conn.Ping(ctx)
}

// HeartbeatRTT returns the last heartbeat round trip to the provider
// (zero until measured; requires Config.Heartbeat).
func (c *MDP) HeartbeatRTT() time.Duration { return c.conn.RTT() }

// LMR is a client connection to a local metadata repository.
type LMR struct {
	conn *wire.Client
	cfg  Config
}

// DialLMR connects to an LMR server with a zero Config.
func DialLMR(addr string) (*LMR, error) {
	return DialLMRConfig(addr, Config{})
}

// DialLMRConfig connects to an LMR server with explicit fault-tolerance
// settings.
func DialLMRConfig(addr string, cfg Config) (*LMR, error) {
	conn, err := wire.DialConfig(addr, cfg.wire())
	if err != nil {
		return nil, err
	}
	return &LMR{conn: conn, cfg: cfg}, nil
}

func (c *LMR) call(kind string, req, out interface{}) error {
	return call(c.conn, c.cfg, kind, req, out)
}

// Close closes the connection.
func (c *LMR) Close() error { return c.conn.Close() }

// QueryContext evaluates an MDV query at the LMR under an explicit context.
func (c *LMR) QueryContext(ctx context.Context, q string) ([]*rdf.Resource, error) {
	var resp wire.ResourcesResponse
	if err := c.conn.CallContext(ctx, wire.KindQuery, &wire.QueryRequest{Query: q}, &resp); err != nil {
		return nil, err
	}
	return resp.Resources, nil
}

// Query evaluates an MDV query at the LMR.
func (c *LMR) Query(q string) ([]*rdf.Resource, error) {
	var resp wire.ResourcesResponse
	if err := c.call(wire.KindQuery, &wire.QueryRequest{Query: q}, &resp); err != nil {
		return nil, err
	}
	return resp.Resources, nil
}

// AddSubscription asks the LMR to subscribe to its MDP.
func (c *LMR) AddSubscription(rule string) (int64, error) {
	var resp wire.SubscribeResponse
	if err := c.call(wire.KindAddSubscription, &wire.AddSubscriptionRequest{Rule: rule}, &resp); err != nil {
		return 0, err
	}
	return resp.SubID, nil
}

// RemoveSubscription drops one of the LMR's subscriptions.
func (c *LMR) RemoveSubscription(subID int64) error {
	return c.call(wire.KindRemoveSubscription, &wire.UnsubscribeRequest{SubID: subID}, nil)
}

// RegisterLocalDocument stores LMR-private metadata.
func (c *LMR) RegisterLocalDocument(doc *rdf.Document) error {
	return c.call(wire.KindRegisterLocal, &wire.Doc{URI: doc.URI, XML: rdf.DocumentString(doc)}, nil)
}

// Metrics fetches the LMR node's metrics registry rendered as Prometheus
// text (empty when the node runs with metrics disabled).
func (c *LMR) Metrics() (string, error) {
	var resp wire.MetricsResponse
	if err := c.call(wire.KindMetrics, nil, &resp); err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Resources lists cached resources of a class (empty = all).
func (c *LMR) Resources(class string) ([]*rdf.Resource, error) {
	var resp wire.ResourcesResponse
	if err := c.call(wire.KindListResources, &wire.ListResourcesRequest{Class: class}, &resp); err != nil {
		return nil, err
	}
	return resp.Resources, nil
}
