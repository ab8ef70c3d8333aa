// Package lmr implements the Local Metadata Repository node: the middle
// tier of MDV (paper §2.2). A node owns a cache repository, maintains its
// subscriptions at an MDP, receives published changesets, and serves the
// MDV query language to local clients.
package lmr

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/backoff"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/provider"
	"mdv/internal/query"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/wire"
)

// ProviderAPI is what an LMR needs from its MDP: subscriptions, the
// attached push channel, resuming the changeset stream past an applied
// sequence and acknowledging applied pushes. The in-process
// provider.Provider and the network client.MDP both implement it.
type ProviderAPI interface {
	Subscribe(subscriber, rule string) (int64, error)
	Unsubscribe(subID int64) error
	Attach(subscriber string, apply func(seq uint64, reset bool, cs *core.Changeset) error) error
	Resume(subscriber string, fromSeq uint64) (uint64, error)
	Ack(subscriber string, seq uint64) error
}

// Node is one LMR.
type Node struct {
	name string
	repo *repository.Repository
	eval *query.Evaluator
	prov ProviderAPI

	// mu guards the node's own bookkeeping (subscriptions, ack cursor,
	// provider handle). Reads take it shared; it is never held across
	// provider calls or query evaluation.
	mu       sync.RWMutex
	subs     map[int64]string // subID -> rule text
	attached bool
	// ackSeq is the highest applied sequence queued for acknowledgment;
	// ackBusy marks the single ack worker as running. Acks are sent
	// asynchronously because a network push is dispatched on the client's
	// read loop: a synchronous Ack call there could never read its own
	// response. Coalescing to the latest sequence is safe — acks only
	// advance the provider's truncation watermark.
	ackSeq  uint64
	ackSent uint64
	ackBusy bool

	server *wire.Server

	// resumes/reconnects count stream recoveries; degradedWrites counts
	// write attempts that hit a primary-less cluster (mid-failover) and
	// were retried; reg is the metrics registry attached via EnableMetrics
	// (nil until then).
	resumes        atomic.Uint64
	reconnects     atomic.Uint64
	degradedWrites atomic.Uint64
	reg            atomic.Pointer[metrics.Registry]
}

// New creates an LMR node connected to the given provider.
func New(name string, schema *rdf.Schema, prov ProviderAPI) (*Node, error) {
	repo, err := repository.New(name, schema)
	if err != nil {
		return nil, err
	}
	return &Node{
		name: name,
		repo: repo,
		eval: query.NewEvaluator(repo.DB(), schema),
		prov: prov,
		subs: map[int64]string{},
	}, nil
}

// Name returns the node's subscriber identity.
func (n *Node) Name() string { return n.name }

// Repository exposes the underlying cache (tests, tooling).
func (n *Node) Repository() *repository.Repository { return n.repo }

// ensureAttached registers the push channel at the MDP once, before the
// first subscription, so no published changeset is missed.
func (n *Node) ensureAttached() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attached {
		return nil
	}
	if err := n.prov.Attach(n.name, n.applyPush); err != nil {
		return err
	}
	n.attached = true
	return nil
}

// applyPush applies one pushed changeset and schedules an acknowledgment
// of its sequence to the provider (advancing its truncation watermark).
// Ack failures never fail the application: the push is already applied,
// and the ack is advisory.
func (n *Node) applyPush(seq uint64, reset bool, cs *core.Changeset) error {
	if err := n.repo.ApplyPush(seq, reset, cs); err != nil {
		return err
	}
	n.scheduleAck(seq)
	return nil
}

// scheduleAck queues seq for acknowledgment and ensures one worker is
// draining the queue.
func (n *Node) scheduleAck(seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if seq <= n.ackSeq {
		return
	}
	n.ackSeq = seq
	if n.ackBusy {
		return
	}
	n.ackBusy = true
	go n.ackLoop()
}

// ackLoop sends the newest queued ack until nothing newer is queued.
func (n *Node) ackLoop() {
	for {
		n.mu.Lock()
		seq := n.ackSeq
		if seq <= n.ackSent {
			n.ackBusy = false
			n.mu.Unlock()
			return
		}
		prov := n.prov
		n.mu.Unlock()
		// A lost ack only delays the provider's log truncation; the next
		// one covers it.
		_ = prov.Ack(n.name, seq)
		n.mu.Lock()
		n.ackSent = seq
		n.mu.Unlock()
	}
}

// AckedSeq returns the highest sequence acknowledged to the provider.
func (n *Node) AckedSeq() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ackSent
}

// Resume asks the provider to replay every changeset published for this
// node past the repository's cursor. Returns the sequence the node is
// current to afterwards.
func (n *Node) Resume() (uint64, error) {
	if err := n.ensureAttached(); err != nil {
		return 0, err
	}
	n.mu.Lock()
	prov := n.prov
	n.mu.Unlock()
	seq, err := prov.Resume(n.name, n.repo.LastSeq())
	if err == nil {
		n.resumes.Add(1)
	}
	return seq, err
}

// Reconnect swaps in a fresh provider connection (after a network failure
// or provider restart), re-attaches the push channel, and resumes the
// changeset stream from the last applied sequence. The node's
// subscriptions live in the provider's changelog, so they are not
// re-registered; the resume replay (or a full-state reset, if the
// provider's log no longer covers the cursor) converges the cache.
func (n *Node) Reconnect(prov ProviderAPI) error {
	n.mu.Lock()
	n.prov = prov
	n.attached = false
	n.mu.Unlock()
	n.reconnects.Add(1)
	if reg := n.reg.Load(); reg != nil {
		if pm, ok := prov.(PushMetricsProvider); ok {
			pm.EnablePushMetrics(reg)
		}
	}
	_, err := n.Resume()
	return err
}

// writeRetry runs one provider write, retrying with short backoff while
// the cluster has no primary (mid-failover: the old primary is gone and no
// follower has been promoted yet). Reads keep serving from the cache the
// whole time — graceful degradation loses write availability only, and
// only for the failover window. Bounded, so a cluster that stays headless
// still surfaces the typed NoPrimaryError to the caller.
func (n *Node) writeRetry(op func() error) error {
	bo := &backoff.Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	return backoff.Retry(context.Background(), bo, 5, func(err error) bool {
		if provider.IsNoPrimary(err) {
			n.degradedWrites.Add(1)
			return true
		}
		return false
	}, op)
}

// DegradedWrites returns how many write attempts found no primary and were
// retried.
func (n *Node) DegradedWrites() uint64 { return n.degradedWrites.Load() }

// AddSubscription registers a subscription rule at the MDP (paper §2.2:
// "When subscribing to an MDP an LMR registers a set of subscription
// rules"). The node is attached before subscribing, so the MDP delivers the
// initial cache fill through the ordered push channel.
func (n *Node) AddSubscription(rule string) (int64, error) {
	if err := n.ensureAttached(); err != nil {
		return 0, err
	}
	var subID int64
	err := n.writeRetry(func() error {
		var err error
		subID, err = n.prov.Subscribe(n.name, rule)
		return err
	})
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.subs[subID] = rule
	n.mu.Unlock()
	return subID, nil
}

// RemoveSubscription unregisters a rule and drops its cache credits; the
// garbage collector then removes resources no longer covered (§2.4).
func (n *Node) RemoveSubscription(subID int64) error {
	n.mu.Lock()
	_, known := n.subs[subID]
	n.mu.Unlock()
	if !known {
		return fmt.Errorf("lmr: unknown subscription %d", subID)
	}
	if err := n.writeRetry(func() error { return n.prov.Unsubscribe(subID) }); err != nil {
		return err
	}
	if err := n.repo.DropSubscriptionCredits(subID); err != nil {
		return err
	}
	n.mu.Lock()
	delete(n.subs, subID)
	n.mu.Unlock()
	return nil
}

// Subscriptions lists the node's subscriptions (id -> rule text).
func (n *Node) Subscriptions() map[int64]string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[int64]string, len(n.subs))
	for id, rule := range n.subs {
		out[id] = rule
	}
	return out
}

// Query evaluates an MDV query against the local cache only (§2.2: "LMRs
// cache global metadata and use only locally available metadata for query
// processing"). Evaluation runs under the repository's shared lock:
// concurrent queries proceed in parallel and block only while a pushed
// changeset is being applied.
func (n *Node) Query(q string) ([]*rdf.Resource, error) {
	var out []*rdf.Resource
	err := n.repo.View(func() error {
		var err error
		out, err = n.eval.Evaluate(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RegisterLocalDocument stores LMR-private metadata.
func (n *Node) RegisterLocalDocument(doc *rdf.Document) error {
	return n.repo.RegisterLocalDocument(doc)
}

// Resources lists cached resources of a class (empty = all).
func (n *Node) Resources(class string) ([]*rdf.Resource, error) {
	return n.repo.Resources(class)
}

// Serve starts the node's client-facing wire server with a zero
// wire.Config.
func (n *Node) Serve(addr string) (string, error) {
	return n.ServeConfig(addr, wire.Config{})
}

// ServeConfig starts the node's client-facing wire server with explicit
// fault-tolerance settings.
func (n *Node) ServeConfig(addr string, cfg wire.Config) (string, error) {
	srv, err := wire.NewServerConfig(addr, n.handle, cfg)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.server = srv
	n.mu.Unlock()
	return srv.Addr(), nil
}

// Close stops the wire server, if running.
func (n *Node) Close() error {
	n.mu.Lock()
	srv := n.server
	n.server = nil
	n.mu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

func (n *Node) handle(_ *wire.ServerConn, kind string, body json.RawMessage) (interface{}, error) {
	switch kind {
	case wire.KindQuery:
		var req wire.QueryRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		rs, err := n.Query(req.Query)
		if err != nil {
			return nil, err
		}
		return &wire.ResourcesResponse{Resources: rs}, nil
	case wire.KindAddSubscription:
		var req wire.AddSubscriptionRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		id, err := n.AddSubscription(req.Rule)
		if err != nil {
			return nil, err
		}
		return &wire.SubscribeResponse{SubID: id}, nil
	case wire.KindRemoveSubscription:
		var req wire.UnsubscribeRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, n.RemoveSubscription(req.SubID)
	case wire.KindRegisterLocal:
		var req wire.Doc
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		doc, err := rdf.ParseDocumentString(req.URI, req.XML)
		if err != nil {
			return nil, err
		}
		return nil, n.RegisterLocalDocument(doc)
	case wire.KindListResources:
		var req wire.ListResourcesRequest
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		rs, err := n.Resources(req.Class)
		if err != nil {
			return nil, err
		}
		return &wire.ResourcesResponse{Resources: rs}, nil
	case wire.KindLMRStats:
		return n.repo.Stats(), nil
	case wire.KindMetrics:
		var text string
		if reg := n.reg.Load(); reg != nil {
			text = reg.Text()
		}
		return &wire.MetricsResponse{Text: text}, nil
	default:
		return nil, fmt.Errorf("lmr: unknown request kind %q", kind)
	}
}
