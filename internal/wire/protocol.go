package wire

import (
	"mdv/internal/core"
	"mdv/internal/rdf"
)

// Request/response payload types of the MDV protocol. Both tiers' servers
// and the typed clients share these definitions.

// Doc is a serialized RDF document in transit.
type Doc struct {
	URI string `json:"uri"`
	XML string `json:"xml"`
}

// Message kinds served by an MDP (metadata provider).
const (
	KindRegisterDocuments = "register_documents"
	KindDeleteDocument    = "delete_document"
	KindSubscribe         = "subscribe"
	KindUnsubscribe       = "unsubscribe"
	KindBrowse            = "browse"
	KindGetDocument       = "get_document"
	KindAttach            = "attach"
	KindNamedRule         = "named_rule"
	KindStats             = "stats"
	// KindDeliveryStats reports per-subscriber delivery health (queue
	// depth, drops, disconnects, heartbeat RTT, publish lag).
	KindDeliveryStats = "delivery_stats"
	// KindMetrics returns the node's metrics registry rendered in the
	// Prometheus text exposition format (both tiers serve it; empty text
	// when metrics are not enabled).
	KindMetrics = "metrics"
	// KindChangeset is the push an MDP sends to attached subscribers.
	KindChangeset = "changeset"
	// KindChangesetBatch is a push carrying several coalesced changesets
	// in publish order (resume replays for lagging cursors amortize frame
	// and queue overhead this way). Both kinds are binary push frames.
	KindChangesetBatch = "changeset_batch"
	// KindResume asks a durable MDP to replay the changesets published
	// since the subscriber's acknowledged sequence number.
	KindResume = "resume"
	// KindAck acknowledges application of a pushed changeset, advancing
	// the MDP's truncation watermark for this subscriber.
	KindAck = "ack"
)

// Message kinds of the primary→replica changelog-shipping protocol. A
// follower MDP first asks for a snapshot if its tail lies below the
// primary's retained log (KindReplSnapshot), then subscribes its
// connection to the live record stream (KindReplStream); the primary
// pushes each durable changelog record verbatim (KindReplRecord) and the
// follower acknowledges applied prefixes (KindReplAck), which pins the
// primary's log truncation.
const (
	KindReplSnapshot      = "repl_snapshot"
	KindReplSnapshotChunk = "repl_snapshot_chunk"
	KindReplStream        = "repl_stream"
	KindReplRecord        = "replog"
	KindReplAck           = "repl_ack"
)

// Failover control kinds. KindPromote turns a follower MDP into the
// primary of a new, higher epoch; KindTopology reports a node's view of
// the cluster (role, epoch, primary, follower lag); KindEpochAnnounce
// informs a node of a higher epoch elsewhere, so a resurrected stale
// primary fences itself and re-points at the real primary.
const (
	KindPromote       = "promote"
	KindTopology      = "topology"
	KindEpochAnnounce = "epoch_announce"
)

// ReplSnapshotRequest asks the primary for a bootstrap snapshot if the
// follower's changelog tail (FromSeq) lies below the primary's retained
// log. When a snapshot is needed its bytes arrive as ordered
// KindReplSnapshotChunk pushes on this connection, before the response.
// Epoch is the follower's current epoch: a primary receiving a request
// from a HIGHER epoch knows it is stale and self-demotes instead of
// serving. Force demands a snapshot even when the follower's tail looks
// current — the divergent-tail repair a demoted ex-primary runs, since
// its tail past the last replicated prefix can disagree with history.
type ReplSnapshotRequest struct {
	FromSeq uint64 `json:"from_seq"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Force   bool   `json:"force,omitempty"`
}

// ReplSnapshotChunk is one piece of a streamed engine snapshot. Engine
// snapshots can exceed the wire message limit, so they ship chunked.
type ReplSnapshotChunk struct {
	Data []byte `json:"data"`
	Last bool   `json:"last"`
}

// ReplSnapshotResponse reports whether a snapshot was shipped and the
// sequence number it covers up to.
type ReplSnapshotResponse struct {
	Needed      bool   `json:"needed"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Epoch is the primary's current epoch at negotiation time.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplStreamRequest subscribes the connection to the primary's changelog
// records with sequence > FromSeq. The primary rejects it with a
// descriptive error if records past FromSeq have been truncated (the
// follower must re-bootstrap via KindReplSnapshot).
type ReplStreamRequest struct {
	Follower string `json:"follower"`
	FromSeq  uint64 `json:"from_seq"`
	// Epoch fences the stream: a primary whose epoch is LOWER than the
	// follower's refuses (and self-demotes — the request is proof of a
	// newer term); a follower never streams history it has outgrown.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplStreamResponse reports the primary's changelog tail and epoch at
// stream start. The follower stamps proxied writes with this epoch until
// the stream teaches it a newer one.
type ReplStreamResponse struct {
	LatestSeq uint64 `json:"latest_seq"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

// ReplRecordPush carries one changelog record, verbatim, to a follower.
// SentUnixNano is the primary's clock at send time; the follower subtracts
// it from its own clock for the replication-lag-seconds gauge (clock skew
// is the measurement's error bar).
type ReplRecordPush struct {
	Seq          uint64 `json:"seq"`
	Rec          []byte `json:"rec"`
	SentUnixNano int64  `json:"sent_unix_nano,omitempty"`
	// Epoch is the sender's epoch at send time; a follower that has seen a
	// higher epoch rejects the record (a stale primary's stream must not
	// extend the log past the point history diverged).
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplAckRequest reports the follower's durable applied prefix. The
// primary keeps per-follower acks for lag metrics and holds log truncation
// below the minimum of connected followers' acks.
type ReplAckRequest struct {
	Follower string `json:"follower"`
	Seq      uint64 `json:"seq"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// PromoteResponse reports the epoch the promoted node now leads. Promote
// is idempotent: promoting a node that is already primary returns its
// current epoch unchanged.
type PromoteResponse struct {
	Epoch uint64 `json:"epoch"`
}

// TopologyResponse is one node's view of the replication cluster: its own
// role and epoch, the primary's address as it knows it (its own advertised
// address when it IS the primary), its changelog tail, and — on a primary
// — per-follower replication lag.
type TopologyResponse struct {
	Name    string `json:"name"`
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
	LogSeq  uint64 `json:"log_seq"`
	// ProxyUp reports, on a replica, whether the write-forwarding path to
	// the primary is currently established.
	ProxyUp   bool               `json:"proxy_up,omitempty"`
	Followers []FollowerDelivery `json:"followers,omitempty"`
}

// EpochAnnounceRequest carries proof of a newer epoch to a (presumed
// stale) node, with the new primary's address so it can re-point. The
// response returns the receiver's resulting epoch.
type EpochAnnounceRequest struct {
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
}

// EpochAnnounceResponse returns the receiver's epoch after processing the
// announcement (it may exceed the announced epoch if the receiver knew of
// an even newer term).
type EpochAnnounceResponse struct {
	Epoch uint64 `json:"epoch"`
}

// Message kinds served by an LMR (local metadata repository).
const (
	KindQuery              = "query"
	KindAddSubscription    = "add_subscription"
	KindRemoveSubscription = "remove_subscription"
	KindRegisterLocal      = "register_local"
	KindListResources      = "list_resources"
	KindLMRStats           = "lmr_stats"
)

// RegisterDocumentsRequest registers or re-registers documents at an MDP.
// Epoch, when non-zero, fences the write: an MDP whose epoch differs
// rejects it rather than applying a write issued against a superseded (or
// not-yet-learned) view of the cluster. Zero means unfenced (a direct
// client that does not track epochs). The same field and semantics apply
// to every write request below.
type RegisterDocumentsRequest struct {
	Docs  []Doc  `json:"docs"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// DeleteDocumentRequest deletes a document at an MDP.
type DeleteDocumentRequest struct {
	URI   string `json:"uri"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// SubscribeRequest registers a subscription rule.
type SubscribeRequest struct {
	Subscriber string `json:"subscriber"`
	Rule       string `json:"rule"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// SubscribeResponse returns the subscription id. The initial cache fill
// reaches the subscriber as an ordered changeset push, not in the response.
type SubscribeResponse struct {
	SubID int64 `json:"sub_id"`
}

// UnsubscribeRequest removes a subscription.
type UnsubscribeRequest struct {
	SubID int64  `json:"sub_id"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// BrowseRequest lists resources at an MDP (§2.2's user browsing).
type BrowseRequest struct {
	Class    string `json:"class"`
	Contains string `json:"contains,omitempty"`
}

// ResourcesResponse is the answer to an LMR query or list_resources and an
// MDP browse. It crosses the wire only as a binary resources frame
// (EncodeResourcesFrame), never as JSON: a handler that returns one has the
// server send the frame, and Client.Call fills one from it.
type ResourcesResponse struct {
	Resources []*rdf.Resource
}

// GetDocumentRequest fetches a registered document.
type GetDocumentRequest struct {
	URI string `json:"uri"`
}

// AttachRequest registers the connection as a subscriber's push channel.
type AttachRequest struct {
	Subscriber string `json:"subscriber"`
}

// ChangesetPush is one pushed changeset. Seq is the publish record's
// changelog sequence number; the subscriber acknowledges it and resumes
// from it after a reconnect. Reset marks a full-state changeset: the
// subscriber must drop its cached global metadata and rebuild from this
// changeset (sent when the MDP can no longer prove a gap-free replay, e.g.
// after truncation). Pushes travel as binary frames (EncodePushFrame) and
// arrive decoded in Message.Pushes; the JSON tags serve tools that still
// frame a push as a JSON envelope.
type ChangesetPush struct {
	Seq       uint64          `json:"seq,omitempty"`
	Reset     bool            `json:"reset,omitempty"`
	Changeset *core.Changeset `json:"changeset"`
	// PubUnixNano is the provider's wall clock at publish time, stamped on
	// live pushes only (resume replays leave it 0: their propagation delay
	// reflects how long the subscriber was away, not pipeline health). The
	// receiver subtracts it from its own clock for the end-to-end
	// propagation-lag histogram; skew between the two clocks is the
	// measurement's error bar.
	PubUnixNano int64 `json:"pub_unix_nano,omitempty"`
}

// ResumeRequest asks for a replay of publishes missed since FromSeq.
type ResumeRequest struct {
	Subscriber string `json:"subscriber"`
	FromSeq    uint64 `json:"from_seq"`
}

// ResumeResponse reports the sequence the subscriber is now current to.
// The replayed changesets themselves arrive as ordered KindChangeset
// pushes on the attached connection, before this response.
type ResumeResponse struct {
	LatestSeq uint64 `json:"latest_seq"`
}

// AckRequest acknowledges the application of pushes up to Seq.
type AckRequest struct {
	Subscriber string `json:"subscriber"`
	Seq        uint64 `json:"seq"`
}

// SubscriberDelivery is one subscriber's delivery health at an MDP.
type SubscriberDelivery struct {
	Subscriber string `json:"subscriber"`
	// Conns is the number of live push connections.
	Conns int `json:"conns"`
	// QueueDepth/QueueCap aggregate the outbound queues of the live
	// connections.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Enqueued counts changesets queued for delivery; Dropped counts
	// overflow disconnects (each drops exactly the changeset that
	// overflowed; the subscriber recovers it by resuming); Disconnects
	// counts push-channel losses of any cause.
	Enqueued    uint64 `json:"enqueued"`
	Dropped     uint64 `json:"dropped"`
	Disconnects uint64 `json:"disconnects"`
	// PublishedSeq is the last changelog sequence published to this
	// subscriber; AckedSeq the last it acknowledged; Lag the difference.
	PublishedSeq uint64 `json:"published_seq"`
	AckedSeq     uint64 `json:"acked_seq"`
	Lag          uint64 `json:"lag"`
	// RTTMicros is the last heartbeat round trip measured on a push
	// connection (0 = not yet measured / heartbeats off); IdleMillis the
	// inbound silence on the least idle connection.
	RTTMicros  int64 `json:"rtt_micros"`
	IdleMillis int64 `json:"idle_millis"`
}

// FollowerDelivery is one follower MDP's replication health at a primary.
type FollowerDelivery struct {
	Follower string `json:"follower"`
	// StreamedSeq is the last changelog record sent to the follower;
	// AckedSeq the last it acknowledged as durably applied; LagSeqs the
	// distance from the primary's tail to AckedSeq.
	StreamedSeq uint64 `json:"streamed_seq"`
	AckedSeq    uint64 `json:"acked_seq"`
	LagSeqs     uint64 `json:"lag_seqs"`
	Connected   bool   `json:"connected"`
}

// DeliveryStatsResponse is the body of a KindDeliveryStats response.
type DeliveryStatsResponse struct {
	Subscribers []SubscriberDelivery `json:"subscribers"`
	// LogSeq is the provider's changelog tail (0 if not durable).
	LogSeq uint64 `json:"log_seq"`
	// Role is "primary" or "replica" ("" on pre-replication nodes).
	Role string `json:"role,omitempty"`
	// Epoch is the node's current replication epoch (0 from nodes that
	// predate epochs).
	Epoch uint64 `json:"epoch,omitempty"`
	// Followers lists connected (and recently connected) follower MDPs
	// replicating from this node.
	Followers []FollowerDelivery `json:"followers,omitempty"`
}

// MetricsResponse is the body of a KindMetrics response: the node's
// metrics registry in Prometheus text exposition format.
type MetricsResponse struct {
	Text string `json:"text"`
}

// NamedRuleRequest registers a named rule usable as an extension.
type NamedRuleRequest struct {
	Name  string `json:"name"`
	Rule  string `json:"rule"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// QueryRequest evaluates an MDV query at an LMR.
type QueryRequest struct {
	Query string `json:"query"`
}

// AddSubscriptionRequest asks an LMR to subscribe to its MDP.
type AddSubscriptionRequest struct {
	Rule string `json:"rule"`
}

// ListResourcesRequest lists cached resources at an LMR.
type ListResourcesRequest struct {
	Class string `json:"class"`
}
