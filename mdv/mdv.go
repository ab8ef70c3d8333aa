// Package mdv is the public API of the MDV distributed metadata management
// system, a reproduction of Keidl, Kreutz, Kemper, Kossmann: "A Publish &
// Subscribe Architecture for Distributed Metadata Management" (ICDE 2002).
//
// MDV has a 3-tier architecture:
//
//   - Providers (MDPs) form the backbone: they store global RDF metadata,
//     replicate registrations among each other, and run the paper's
//     publish & subscribe filter algorithm on every registration, update,
//     and deletion.
//   - Repositories (LMRs) are middle-tier caches close to applications.
//     They subscribe with rules written in the MDV rule language; the
//     provider pushes exactly the matching resources (plus their
//     strong-reference closures) and keeps them up to date.
//   - Clients query a repository with the MDV query language; queries are
//     evaluated purely on the local cache.
//
// # Quick start
//
//	schema := mdv.NewSchema()
//	schema.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverHost", Type: mdv.TypeString})
//
//	mdp, _ := mdv.NewProvider("mdp1", schema)
//	node, _ := mdv.NewRepositoryNode("lmr1", schema, mdp)
//	node.AddSubscription(`search CycleProvider c register c where c.serverHost contains 'uni-passau.de'`)
//
//	doc, _ := mdv.ParseDocument("doc.rdf", xmlReader)
//	mdp.RegisterDocument(doc) // pushed to the repository automatically
//
//	results, _ := node.Query(`search CycleProvider c register c`)
//
// The same components run over TCP: Provider.Serve / RepositoryNode.Serve
// start servers, and DialProvider / DialRepository return network clients.
// A network provider client satisfies the same interface the repository
// node needs, so the wiring is identical in-process and across machines.
package mdv

import (
	"io"

	"mdv/internal/backoff"
	"mdv/internal/changelog"
	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/lmr"
	"mdv/internal/metrics"
	"mdv/internal/provider"
	"mdv/internal/rdf"
	"mdv/internal/replica"
	"mdv/internal/wire"
)

// Re-exported metadata model types.
type (
	// Document is an RDF document: a URI plus resources.
	Document = rdf.Document
	// Resource is one RDF resource with its class and properties.
	Resource = rdf.Resource
	// Property is one (name, value) pair of a resource.
	Property = rdf.Property
	// Value is a property value: literal or resource reference.
	Value = rdf.Value
	// Schema declares the classes metadata must conform to.
	Schema = rdf.Schema
	// PropertyDef declares one property of a schema class.
	PropertyDef = rdf.PropertyDef
	// Statement is one decomposed metadata atom (an RDF triple with class).
	Statement = rdf.Statement
)

// Property value and reference kinds.
const (
	TypeString   = rdf.TypeString
	TypeInteger  = rdf.TypeInteger
	TypeFloat    = rdf.TypeFloat
	TypeBoolean  = rdf.TypeBoolean
	TypeResource = rdf.TypeResource

	StrongRef = rdf.StrongRef
	WeakRef   = rdf.WeakRef
)

// Lit makes a literal property value.
func Lit(s string) Value { return rdf.Lit(s) }

// Ref makes a resource-reference property value.
func Ref(uriRef string) Value { return rdf.Ref(uriRef) }

// NewSchema creates an empty schema.
func NewSchema() *Schema { return rdf.NewSchema() }

// NewDocument creates an empty RDF document with the given URI.
func NewDocument(uri string) *Document { return rdf.NewDocument(uri) }

// ParseDocument parses an RDF/XML document.
func ParseDocument(uri string, r io.Reader) (*Document, error) {
	return rdf.ParseDocument(uri, r)
}

// ParseDocumentString parses an RDF/XML document from a string.
func ParseDocumentString(uri, src string) (*Document, error) {
	return rdf.ParseDocumentString(uri, src)
}

// WriteDocument serializes a document as RDF/XML.
func WriteDocument(w io.Writer, doc *Document) error { return rdf.WriteDocument(w, doc) }

// ParseSchema reads a schema from its RDF Schema serialization.
func ParseSchema(r io.Reader) (*Schema, error) { return rdf.ParseSchema(r) }

// Publish & subscribe types.
type (
	// Changeset is what a provider publishes to one subscriber.
	Changeset = core.Changeset
	// Upsert is a delivered resource with its subscription credits and
	// strong-reference closure.
	Upsert = core.Upsert
	// Removal revokes one subscription's credit on a resource.
	Removal = core.Removal
	// EngineStats counts filter work (for experiments).
	EngineStats = core.Stats
	// EngineOptions tunes the filter engine: the paper's three ablation
	// switches.
	EngineOptions = core.Options
)

// Provider is a Metadata Provider (MDP): a backbone node running the
// publish & subscribe filter.
type Provider = provider.Provider

// NewProvider creates an MDP with a fresh metadata store. Its changelog
// lives in a private temporary directory that Close removes; use
// OpenDurableProvider for an MDP that survives a restart.
func NewProvider(name string, schema *Schema) (*Provider, error) {
	return provider.New(name, schema)
}

// Engine is the publish & subscribe filter engine of a provider (exposed
// for snapshots and experiments).
type Engine = core.Engine

// Every provider keeps a write-ahead changelog: it makes every
// acknowledged operation crash-safe and lets reconnecting repositories
// resume the changeset stream (see internal/provider/durable.go).
type (
	// DurableOptions tune a provider's changelog.
	DurableOptions = provider.DurableOptions
	// RecoveryStats report what OpenDurableProvider replayed at startup.
	RecoveryStats = provider.RecoveryStats
	// SyncPolicy selects when the changelog fsyncs.
	SyncPolicy = changelog.SyncPolicy
)

// Changelog durability policies.
const (
	// SyncGroup batches concurrent operations into shared fsyncs (default).
	SyncGroup = changelog.SyncGroup
	// SyncAlways fsyncs every append before acknowledging it.
	SyncAlways = changelog.SyncAlways
	// SyncNone never fsyncs explicitly (crash durability up to the OS).
	SyncNone = changelog.SyncNone
)

// OpenDurableProvider opens (or creates) a durable MDP rooted at dir. It
// loads the latest snapshot, replays the changelog tail past it, and
// returns a provider whose every acknowledged operation survives kill -9.
func OpenDurableProvider(name string, schema *Schema, dir string, opts DurableOptions) (*Provider, error) {
	return provider.OpenDurable(name, schema, dir, opts)
}

// OpenDurableProviderWithStats is OpenDurableProvider, also reporting how
// much recovery work startup performed.
func OpenDurableProviderWithStats(name string, schema *Schema, dir string, opts DurableOptions) (*Provider, *RecoveryStats, error) {
	return provider.OpenDurableWithStats(name, schema, dir, opts)
}

// Replication (DESIGN.md §10): a primary MDP streams its changelog to
// follower MDPs, which serve the full read path (subscriptions, queries,
// browsing) and proxy writes back to the primary. LMRs given several
// endpoints fail over between them.
type (
	// Follower runs the replica side of MDP replication: it streams the
	// primary's changelog into a provider opened with
	// DurableOptions.Replica, bootstrapping from a shipped snapshot when
	// its local log copy has fallen behind the primary's retention.
	Follower = replica.Follower
	// FollowerOptions tune a follower: primary address, announced name,
	// ack cadence, reconnect backoff.
	FollowerOptions = replica.Options
	// FollowerDelivery is one follower's stream health as the primary
	// reports it (DeliveryStats.Followers).
	FollowerDelivery = wire.FollowerDelivery
	// MultiDialer dials an MDP from a list of endpoints (primary +
	// replicas), sticking with the last healthy one and rotating on
	// failure; plug its Dial into SuperviseConfig for LMR failover.
	MultiDialer = client.MultiDialer
)

// StartFollower begins replicating prov (opened with
// DurableOptions.Replica) from the primary.
func StartFollower(prov *Provider, opts FollowerOptions) (*Follower, error) {
	return replica.Start(prov, opts)
}

// NewMultiDialer builds a provider dialer over several endpoints.
func NewMultiDialer(addrs []string, cfg ClientConfig) (*MultiDialer, error) {
	return client.NewMultiDialer(addrs, cfg)
}

// ErrNotPrimary is returned for writes against a replica that has no live
// primary connection to proxy them to.
var ErrNotPrimary = provider.ErrNotPrimary

// Epoch-fenced failover (DESIGN.md §11): promotions bump a durable
// replication term; stale-term traffic is fenced, a resurrected old
// primary self-demotes and repairs its divergent tail, and writes against
// a primary-less cluster degrade to a typed retryable error.
type (
	// TopologyView is one node's view of the cluster: its role and epoch,
	// the primary it knows, and (on a primary) per-follower stream lag.
	TopologyView = wire.TopologyResponse
	// NoPrimaryError is the typed, retryable error writes return while the
	// cluster has no reachable primary; it carries the last-known topology
	// so the caller knows where to look next. errors.Is(err, ErrNotPrimary)
	// still matches it.
	NoPrimaryError = provider.NoPrimaryError
	// FencedWriteError rejects a request stamped with a replication term
	// the receiving node is no longer serving.
	FencedWriteError = provider.FencedWriteError
)

// IsNoPrimary reports whether err (local or remote) means the cluster had
// no reachable primary — retry after the failover completes.
func IsNoPrimary(err error) bool { return provider.IsNoPrimary(err) }

// IsFenced reports whether err (local or remote) is an epoch-fence
// rejection: the write was stamped with a dead term and must not be
// retried against the same history.
func IsFenced(err error) bool { return provider.IsFenced(err) }

// ProbeForPrimary probes each endpoint and returns the address and
// topology of the highest-epoch node currently serving as primary ("" and
// nil when none answers as one).
func ProbeForPrimary(addrs []string, cfg ClientConfig) (string, *TopologyView) {
	return replica.ProbeForPrimary(addrs, cfg)
}

// RepositoryNode is a Local Metadata Repository (LMR): the middle-tier
// cache with local query processing.
type RepositoryNode = lmr.Node

// ProviderAPI is the provider interface a repository node needs:
// subscribe and unsubscribe, attach the push channel, resume the changeset
// stream and acknowledge applied pushes. Both *Provider and
// *ProviderClient satisfy it.
type ProviderAPI = lmr.ProviderAPI

// NewRepositoryNode creates an LMR connected to the given provider (either
// an in-process *Provider or a *ProviderClient).
func NewRepositoryNode(name string, schema *Schema, prov ProviderAPI) (*RepositoryNode, error) {
	return lmr.New(name, schema, prov)
}

// ReconnectableProvider is the provider handle RepositoryNode.Supervise
// manages; *ProviderClient implements it.
type ReconnectableProvider = lmr.ReconnectableProvider

// SuperviseConfig configures RepositoryNode.Supervise, the reconnect loop
// that redials a lost provider connection with jittered backoff and
// resumes the changeset stream.
type SuperviseConfig = lmr.SuperviseConfig

// ProviderClient is a network client to a remote MDP.
type ProviderClient = client.MDP

// DialProvider connects to a provider's wire server.
func DialProvider(addr string) (*ProviderClient, error) { return client.DialMDP(addr) }

// RepositoryClient is a network client to a remote LMR.
type RepositoryClient = client.LMR

// DialRepository connects to a repository node's wire server.
func DialRepository(addr string) (*RepositoryClient, error) { return client.DialLMR(addr) }

// Fault-tolerant delivery (DESIGN.md §7): heartbeats, I/O deadlines,
// bounded per-subscriber send queues, and retry classification.
type (
	// WireConfig tunes a wire server's fault tolerance: heartbeat
	// interval, idle and write deadlines, and the per-connection send
	// queue bound. The zero value uses the package defaults
	// (Provider.ServeConfig / RepositoryNode.ServeConfig accept it).
	WireConfig = wire.Config
	// ClientConfig tunes a network client's fault tolerance: heartbeat
	// interval, idle and write deadlines, and a default per-call timeout.
	ClientConfig = client.Config
	// DeliveryStats reports per-subscriber delivery health from an MDP
	// (ProviderClient.DeliveryStats, or the provider's DeliveryStats).
	DeliveryStats = wire.DeliveryStatsResponse
	// SubscriberDelivery is one subscriber's delivery counters: queue
	// depth, drops, disconnects, heartbeat RTT, and publish lag.
	SubscriberDelivery = wire.SubscriberDelivery
	// Backoff computes jittered exponential retry delays; its zero value
	// is ready to use. Both the LMR reconnect loop and Retry use it.
	Backoff = backoff.Backoff
)

// DialProviderWithConfig connects to a provider's wire server with
// explicit fault-tolerance settings.
func DialProviderWithConfig(addr string, cfg ClientConfig) (*ProviderClient, error) {
	return client.DialMDPConfig(addr, cfg)
}

// DialRepositoryWithConfig connects to a repository node's wire server
// with explicit fault-tolerance settings.
func DialRepositoryWithConfig(addr string, cfg ClientConfig) (*RepositoryClient, error) {
	return client.DialLMRConfig(addr, cfg)
}

// Observability (DESIGN.md §9): a dependency-free metrics registry with
// Prometheus text exposition. Provider.EnableMetrics and
// RepositoryNode.EnableMetrics attach a node and everything below it;
// Registry.Handler serves /metrics; ProviderClient.Metrics and
// RepositoryClient.Metrics fetch the rendered text over the wire.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// IsRetryable reports whether err is a transient transport failure worth
// retrying on a fresh connection, as opposed to an application error
// reported by the remote handler (which a retry would only repeat).
func IsRetryable(err error) bool { return client.IsRetryable(err) }

// Retry runs fn until it succeeds, fails with a non-retryable error, the
// attempt budget is exhausted (0 = unlimited), or ctx is done, sleeping a
// jittered backoff between attempts.
var Retry = backoff.Retry
