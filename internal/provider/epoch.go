// Epoch-fenced failover: every provider serves one replication
// term (epoch) at a time. A promotion bumps the term and appends it to the
// changelog as the first record of the new reign, so the term change is
// durable, replicates verbatim, and totally orders against the writes it
// fences. Every replication message and every epoch-stamped write carries
// its sender's term; a node that sees proof of a higher term than its own
// steps down (if primary) or re-points (if replica), and traffic stamped
// with a lower term is rejected — the fence that keeps a resurrected stale
// primary from ever acknowledging a write.
//
// There is no election quorum: promotion is an operator action (mdvctl
// promote) or an opt-in deadman timer (see internal/replica). The fence
// therefore guards the resurrection case — a primary that DIED and came
// back after a promotion can never ack a write at its stale term — not the
// live-partition case, which asynchronous replication without leases
// cannot close (see DESIGN.md §11).
package provider

import (
	"errors"
	"fmt"
	"strings"

	"mdv/internal/wire"
)

// Epoch returns the replication term this provider is serving. Durable
// providers are born at epoch 1; promotions and observed higher terms
// raise it, nothing ever lowers it.
func (p *Provider) Epoch() uint64 { return p.epoch.Load() }

// FencedWrites returns how many requests the epoch fence has rejected.
func (p *Provider) FencedWrites() uint64 { return p.fencedWrites.Load() }

// Promotions returns how many times this node has been promoted to primary.
func (p *Provider) Promotions() uint64 { return p.promotions.Load() }

// ResyncPending reports whether this node demoted itself with a possibly
// divergent log tail and has not yet repaired it: its next bootstrap must
// force a snapshot regardless of how current the tail looks.
func (p *Provider) ResyncPending() bool { return p.resyncPending.Load() }

// bumpEpoch raises the epoch to e if it is higher, and reports whether it
// did. The epoch is monotone: concurrent bumps settle on the maximum.
func (p *Provider) bumpEpoch(e uint64) bool {
	for {
		cur := p.epoch.Load()
		if e <= cur {
			return false
		}
		if p.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// SetReplicationStopper installs the function Promote uses to halt this
// node's replication session (the follower subsystem registers its halt).
// The stopper must not wait for in-flight applies to finish — Promote may
// be invoked from within the session itself.
func (p *Provider) SetReplicationStopper(stop func()) {
	p.mu.Lock()
	p.stopReplication = stop
	p.mu.Unlock()
}

// SetTopologyHint records the last-known primary address and the candidate
// endpoints (the follower subsystem keeps it current). The hint rides on
// NoPrimaryError so a degraded client learns where to look next, and on
// topology responses.
func (p *Provider) SetTopologyHint(primary string, peers []string) {
	p.mu.Lock()
	p.primaryHint = primary
	p.peersHint = append([]string(nil), peers...)
	p.mu.Unlock()
}

// PrimaryHint returns the last-known primary address ("" if none).
func (p *Provider) PrimaryHint() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primaryHint
}

// Promote turns this replica into the primary of a new epoch: the
// replication session is halted, epoch+1 is appended to the changelog as
// an epoch record (fsynced before Promote returns), and the node starts
// accepting writes. Idempotent on a node that is already primary. The
// caller is responsible for having picked a sensible candidate — promotion
// does not check lag, and any writes the old primary had not replicated
// here are gone from this history (the old primary repairs its divergent
// tail via snapshot resync when it rejoins).
func (p *Provider) Promote() (uint64, error) {
	if !p.replica.Load() {
		return p.epoch.Load(), nil
	}
	// Halt the replication session before taking the publish lock: the
	// session's apply path needs pubMu to drain, and after the halt no
	// streamed record or snapshot install can land mid-flip (both recheck
	// the role under pubMu).
	p.mu.Lock()
	stop := p.stopReplication
	p.mu.Unlock()
	if stop != nil {
		stop()
	}
	p.lockPub()
	if !p.replica.Load() {
		epoch := p.epoch.Load()
		p.unlockPub()
		return epoch, nil
	}
	newEpoch := p.epoch.Load() + 1
	seq, err := p.appendRecord(&logRecord{Kind: recEpoch, Epoch: newEpoch})
	if err != nil {
		p.unlockPub()
		return 0, err
	}
	p.epoch.Store(newEpoch)
	p.replica.Store(false)
	p.resyncPending.Store(false)
	p.mu.Lock()
	p.proxy = nil
	p.stopReplication = nil
	p.primaryHint = p.advertise
	p.mu.Unlock()
	p.unlockPub()
	// The group-commit fsync happens outside pubMu like any write's; a
	// write admitted at the new epoch commits at or after the epoch record
	// (it is ordered behind it in the log), never before.
	if err := p.dur.log.WaitDurable(seq); err != nil {
		return 0, err
	}
	p.promotions.Add(1)
	return newEpoch, nil
}

// ObserveEpoch folds in external proof that term epoch exists, led by
// primary (may be "" when the observer does not know). A primary that
// learns of a higher term demotes itself: it stops accepting writes
// (fencing every in-flight and future write of its stale term), drops its
// follower streams, marks its log tail suspect (resyncPending), and fires
// OnDemote so the supervisor can start a follower session toward the new
// primary. On a replica, the epoch and primary hint just advance. Returns
// whether the call demoted a primary.
func (p *Provider) ObserveEpoch(epoch uint64, primary string) bool {
	if primary != "" {
		p.mu.Lock()
		p.primaryHint = primary
		p.mu.Unlock()
	}
	if epoch == 0 {
		return false
	}
	if !p.bumpEpoch(epoch) {
		return false
	}
	if !p.replica.CompareAndSwap(false, true) {
		return false // already a replica; nothing to step down from
	}
	p.resyncPending.Store(true)
	p.dropFollowerStreams()
	if cb := p.OnDemote; cb != nil {
		go cb(epoch, primary)
	}
	return true
}

// dropFollowerStreams hangs up every follower replication stream (the
// demoted node serves no more records of its dead term; followers re-dial
// and find the new primary via their candidate list).
func (p *Provider) dropFollowerStreams() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fs := range p.followers {
		if fs.reader != nil {
			fs.reader.Close()
			fs.reader = nil
		}
		if fs.conn != nil {
			fs.conn.Close()
			fs.conn = nil
		}
		fs.connected = false
	}
}

// fencedMarker appears in every fence rejection so the classification
// survives the wire (RemoteError flattens types to a message).
const fencedMarker = "epoch fence"

// FencedWriteError rejects a request stamped with an epoch this node is
// not serving.
type FencedWriteError struct {
	ReqEpoch uint64 // the stamp the request carried
	OwnEpoch uint64 // the term this node serves
}

func (e *FencedWriteError) Error() string {
	return fmt.Sprintf("provider: %s: request stamped epoch %d rejected by node at epoch %d",
		fencedMarker, e.ReqEpoch, e.OwnEpoch)
}

// IsFenced reports whether err (local or remote) is an epoch-fence
// rejection.
func IsFenced(err error) bool {
	var fe *FencedWriteError
	if errors.As(err, &fe) {
		return true
	}
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, fencedMarker)
}

// fenceWrite admits or rejects one write-path request by its epoch stamp.
// Unstamped requests (epoch 0) pass — epochs are opt-in for writers — and
// so do stamps matching this node's term. Any other stamp is fenced and
// counted; a HIGHER stamp additionally proves this node is stale, so it
// steps down before rejecting (the write was never applied either way).
func (p *Provider) fenceWrite(reqEpoch uint64) error {
	if reqEpoch == 0 {
		return nil
	}
	own := p.epoch.Load()
	if reqEpoch == own {
		return nil
	}
	p.fencedWrites.Add(1)
	if reqEpoch > own {
		p.ObserveEpoch(reqEpoch, "")
	}
	return &FencedWriteError{ReqEpoch: reqEpoch, OwnEpoch: own}
}

// fencePeer screens replication requests (snapshot/stream negotiation). A
// peer announcing a LOWER term is fine — it is a follower catching up and
// will adopt this node's term from the stream. A peer announcing a higher
// term outranks this node: if it is still acting as primary it steps down,
// and the request is refused so the peer re-points.
func (p *Provider) fencePeer(peerEpoch uint64) error {
	if peerEpoch == 0 {
		return nil
	}
	own := p.epoch.Load()
	if peerEpoch <= own {
		return nil
	}
	p.ObserveEpoch(peerEpoch, "")
	return fmt.Errorf("provider: %s: peer at epoch %d outranks this node's epoch %d; stepping down",
		fencedMarker, peerEpoch, own)
}

// CheckStreamEpoch screens one streamed replication record on the follower
// side. Records stamped below the follower's term come from a deposed
// primary that does not know it yet; the session is torn down rather than
// let a stale record into the verbatim log copy.
func (p *Provider) CheckStreamEpoch(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	own := p.epoch.Load()
	if epoch >= own {
		return nil
	}
	p.fencedWrites.Add(1)
	return fmt.Errorf("provider: %s: stream record stamped epoch %d below local epoch %d",
		fencedMarker, epoch, own)
}

// noPrimaryMarker appears in every NoPrimaryError so remote callers can
// classify the flattened message.
const noPrimaryMarker = "no primary reachable"

// NoPrimaryError is the graceful-degradation signal: a replica received a
// write but has no live primary to proxy it to. It is retryable — reads
// keep working, and the write will succeed once a promotion lands — and it
// carries the last-known topology so the caller knows where to look.
type NoPrimaryError struct {
	Epoch       uint64   // the replica's current term
	LastPrimary string   // last-known primary address ("" if never known)
	Peers       []string // candidate endpoints, if the node knows any
}

func (e *NoPrimaryError) Error() string {
	msg := fmt.Sprintf("provider: %s to proxy write to (replica at epoch %d)", noPrimaryMarker, e.Epoch)
	if e.LastPrimary != "" {
		msg += "; last known primary " + e.LastPrimary
	}
	if len(e.Peers) > 0 {
		msg += "; candidates " + strings.Join(e.Peers, ",")
	}
	return msg
}

// Is keeps errors.Is(err, ErrNotPrimary) working for pre-epoch callers.
func (e *NoPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// IsNoPrimary reports whether err (local or remote) is a replica's
// "no primary reachable" degradation signal.
func IsNoPrimary(err error) bool {
	var np *NoPrimaryError
	if errors.As(err, &np) {
		return true
	}
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, noPrimaryMarker)
}

func (p *Provider) noPrimaryErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &NoPrimaryError{
		Epoch:       p.epoch.Load(),
		LastPrimary: p.primaryHint,
		Peers:       append([]string(nil), p.peersHint...),
	}
}

// Topology reports this node's view of the cluster in one response: its
// role and term, the primary address it believes in, and (on a primary)
// per-follower stream positions for lag math.
func (p *Provider) Topology() *wire.TopologyResponse {
	resp := &wire.TopologyResponse{
		Name:   p.name,
		Role:   p.Role(),
		Epoch:  p.Epoch(),
		LogSeq: p.dur.log.LastSeq(),
	}
	p.mu.Lock()
	adv, hint := p.advertise, p.primaryHint
	proxyUp := p.proxy != nil
	p.mu.Unlock()
	if resp.Role == "primary" {
		resp.Primary = adv
		resp.Followers = p.DeliveryStats().Followers
	} else {
		resp.Primary = hint
		resp.ProxyUp = proxyUp
	}
	return resp
}
