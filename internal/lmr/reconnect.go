package lmr

import (
	"time"

	"mdv/internal/backoff"
)

// ReconnectableProvider is the provider handle the reconnect supervisor
// manages: a ProviderAPI whose connection signals its own death and can be
// closed. The network client (client.MDP) implements it.
type ReconnectableProvider interface {
	ProviderAPI
	// Done is closed when the connection dies (read failure, heartbeat
	// timeout, or Close).
	Done() <-chan struct{}
	Close() error
}

// SuperviseConfig configures a node's reconnect supervisor.
type SuperviseConfig struct {
	// Dial opens a fresh provider connection for each reconnect attempt.
	Dial func() (ReconnectableProvider, error)
	// Backoff paces redial attempts (nil: a default jittered 1s→30s
	// schedule). The supervisor resets it after every successful
	// reconnect, so each outage starts over at the base interval instead
	// of inheriting the previous outage's climbed ceiling.
	Backoff *backoff.Backoff
	// Retryable classifies resume errors for logging only — the
	// supervisor never gives up either way, but a non-retryable error (an
	// application-level rejection) will not fix itself by redialing
	// faster, so it is worth calling out. Nil treats all errors alike.
	Retryable func(error) bool
	// Logf receives progress messages (nil discards them).
	Logf func(format string, args ...interface{})
}

// Supervise runs the reconnect loop cmd/lmr uses: wait for the current
// provider connection to die, then redial with jittered backoff,
// re-attach, and resume the changeset stream from the last applied
// sequence. The MDP replays the changesets missed since that sequence
// from its changelog, or sends a full-state reset when its log no longer
// covers it (truncated past it, or lost in a crash).
//
// Supervise owns cur and every connection it dials after it: the
// superseded connection is closed after each successful swap, and the
// current one is closed on the way out. It returns when stop is closed.
func (n *Node) Supervise(stop <-chan struct{}, cur ReconnectableProvider, cfg SuperviseConfig) {
	b := cfg.Backoff
	if b == nil {
		b = &backoff.Backoff{} // jittered exponential: decorrelates a herd of redialing LMRs
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	for {
		select {
		case <-stop:
			cur.Close()
			return
		case <-cur.Done():
		}
		logf("lmr: provider connection lost, reconnecting")
		for {
			select {
			case <-stop:
				cur.Close()
				return
			case <-time.After(b.Next()):
			}
			next, err := cfg.Dial()
			if err != nil {
				logf("lmr: redial: %v (attempt %d)", err, b.Attempts())
				continue
			}
			if err := n.Reconnect(next); err != nil {
				next.Close()
				if cfg.Retryable != nil && !cfg.Retryable(err) {
					// An application-level rejection will not fix itself
					// by redialing faster; keep trying, but say why.
					logf("lmr: resume rejected by provider (will keep retrying): %v", err)
				} else {
					logf("lmr: resume after reconnect: %v", err)
				}
				continue
			}
			cur.Close() // release the dead connection
			cur = next
			// The outage is over: restart the schedule at its base so the
			// next flap reconnects within one base interval instead of
			// waiting out this outage's climbed delay.
			b.Reset()
			logf("lmr: reconnected (current to seq %d)", n.repo.LastSeq())
			break
		}
	}
}
