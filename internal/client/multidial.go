package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// MultiDialer dials an MDP from a list of endpoints — typically the
// primary plus its read replicas. Each Dial starts at the endpoint that
// last succeeded (sticky, so a healthy deployment keeps one connection
// target) and rotates through the rest on failure, which is what gives an
// LMR primary-loss failover: when its provider connection dies, the
// reconnect supervisor redials through this dialer and lands on the next
// endpoint that answers. Replicas serve the whole read path and proxy
// writes to the primary, so any endpoint is a full substitute.
type MultiDialer struct {
	addrs []string
	cfg   Config

	mu   sync.Mutex
	next int // index to try first on the next Dial
	// epoch is the highest replication term any endpoint has announced in
	// a connect handshake. An endpoint announcing a LOWER term is a
	// resurrected stale node: connecting to it could hand writes to a dead
	// history, so Dial treats it as failed and rotates on.
	epoch uint64
}

// NewMultiDialer builds a dialer over the given endpoints.
func NewMultiDialer(addrs []string, cfg Config) (*MultiDialer, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no provider endpoints")
	}
	return &MultiDialer{addrs: append([]string(nil), addrs...), cfg: cfg}, nil
}

// Epoch returns the highest replication term seen across connects.
func (d *MultiDialer) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Dial connects to the first endpoint that answers with a current epoch,
// starting with the last successful one. Endpoints announcing a term below
// the highest one this dialer has seen are rejected like dead ones — they
// are resurrected stale primaries that have not repaired yet. The returned
// connection stamps its writes with the endpoint's announced term, so a
// later demotion of that endpoint fences them instead of applying them. It
// returns the aggregated error if every endpoint fails.
func (d *MultiDialer) Dial() (*MDP, error) {
	d.mu.Lock()
	start := d.next
	d.mu.Unlock()
	var errs []string
	for i := 0; i < len(d.addrs); i++ {
		idx := (start + i) % len(d.addrs)
		c, err := DialMDPConfig(d.addrs[idx], d.cfg)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", d.addrs[idx], err))
			continue
		}
		peer := c.PeerEpoch()
		d.mu.Lock()
		if peer < d.epoch {
			known := d.epoch
			d.mu.Unlock()
			c.Close()
			errs = append(errs, fmt.Sprintf("%s: announced stale epoch %d (cluster is at %d)", d.addrs[idx], peer, known))
			continue
		}
		d.epoch = peer
		d.next = idx
		d.mu.Unlock()
		c.SetWriteEpoch(peer)
		return c, nil
	}
	return nil, fmt.Errorf("client: all %d provider endpoints failed: %s", len(d.addrs), strings.Join(errs, "; "))
}
