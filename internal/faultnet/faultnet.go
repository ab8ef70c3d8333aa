// Package faultnet is an in-process TCP fault-injection proxy for testing
// MDV's delivery layer under wide-area failure modes. A Proxy listens on
// an ephemeral port and forwards byte streams to a target address; tests
// point wire clients at the proxy and then inject:
//
//   - added latency per forwarded chunk (SetLatency),
//   - bandwidth throttling (SetBandwidth),
//   - packet blackholes, full or per-direction for half-open connections
//     (SetBlackhole / SetBlackholeDir) — data stalls silently and TCP
//     backpressure builds up, exactly like a dropped-packet partition,
//     and buffered bytes flow again when the hole heals,
//   - mid-stream connection resets (ResetAll sends RST via SO_LINGER 0),
//   - refusal of new connections (SetRefuseNew).
//
// All knobs are safe to flip concurrently while traffic flows.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction selects one half of a proxied connection.
type Direction int

const (
	// Up is client→target traffic.
	Up Direction = iota
	// Down is target→client traffic.
	Down
)

// pollInterval is how often stalled pumps re-check the blackhole state.
// It bounds how quickly a heal becomes visible.
const pollInterval = 2 * time.Millisecond

// chunkSize is the forwarding buffer size. Small enough that bandwidth
// shaping and latency injection are smooth, large enough to be cheap.
const chunkSize = 16 << 10

// Proxy is one fault-injectable TCP forwarder.
type Proxy struct {
	ln     net.Listener
	target string

	latency    atomic.Int64 // nanos added per forwarded chunk
	bandwidth  atomic.Int64 // bytes/sec, 0 = unlimited
	blackUp    atomic.Bool
	blackDown  atomic.Bool
	refuse     atomic.Bool
	forwarded  [2]atomic.Int64 // bytes forwarded per direction
	closedFlag atomic.Bool

	mu    sync.Mutex
	links map[*link]struct{}
	wg    sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client, target net.Conn
	done           chan struct{}
	closeOnce      sync.Once
}

func (l *link) close(rst bool) {
	l.closeOnce.Do(func() {
		if rst {
			// SO_LINGER 0 turns Close into an RST: the peer sees a
			// mid-stream connection reset, not a clean FIN.
			if tc, ok := l.client.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			if tc, ok := l.target.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		close(l.done)
		l.client.Close()
		l.target.Close()
	})
}

// Listen starts a proxy on 127.0.0.1:0 forwarding to target.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, links: map[*link]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (point clients here).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency adds d of one-way delay to every forwarded chunk.
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// SetBandwidth throttles each direction to bytesPerSec (0 = unlimited).
func (p *Proxy) SetBandwidth(bytesPerSec int64) { p.bandwidth.Store(bytesPerSec) }

// SetBlackhole silently stalls both directions (on) or heals them (off).
// Connections stay open; the peers see pure silence, as in a network
// partition.
func (p *Proxy) SetBlackhole(on bool) {
	p.blackUp.Store(on)
	p.blackDown.Store(on)
}

// SetBlackholeDir stalls a single direction, emulating a half-open
// connection: one peer's traffic vanishes while the other's flows.
func (p *Proxy) SetBlackholeDir(dir Direction, on bool) {
	if dir == Up {
		p.blackUp.Store(on)
	} else {
		p.blackDown.Store(on)
	}
}

// SetRefuseNew makes the proxy close newly accepted connections
// immediately (existing links are unaffected), emulating a crashed or
// unreachable listener.
func (p *Proxy) SetRefuseNew(on bool) { p.refuse.Store(on) }

// ResetAll kills every live link mid-stream with a TCP RST.
func (p *Proxy) ResetAll() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.close(true)
	}
}

// ActiveLinks returns the number of live proxied connections.
func (p *Proxy) ActiveLinks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.links)
}

// Forwarded returns the bytes forwarded so far in the given direction.
func (p *Proxy) Forwarded(dir Direction) int64 { return p.forwarded[dir].Load() }

// Close stops the proxy and closes all links. It returns after every pump
// goroutine has exited.
func (p *Proxy) Close() error {
	p.closedFlag.Store(true)
	err := p.ln.Close()
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.close(false)
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.refuse.Load() {
			cc.Close()
			continue
		}
		tc, err := net.Dial("tcp", p.target)
		if err != nil {
			cc.Close()
			continue
		}
		l := &link{client: cc, target: tc, done: make(chan struct{})}
		p.mu.Lock()
		if p.closedFlag.Load() {
			p.mu.Unlock()
			l.close(false)
			continue
		}
		p.links[l] = struct{}{}
		p.wg.Add(2)
		go p.pump(l, cc, tc, Up)
		go p.pump(l, tc, cc, Down)
		p.mu.Unlock()
	}
}

func (p *Proxy) blackholed(dir Direction) bool {
	if dir == Up {
		return p.blackUp.Load()
	}
	return p.blackDown.Load()
}

// pump forwards one direction of a link, applying the injected faults. A
// blackhole stalls the pump (holding any chunk already read), so the
// source's TCP send buffer fills and its writes block — the peer observes
// exactly what a packet blackhole produces. When the hole heals, the held
// chunk and the backed-up bytes flow again, like TCP retransmission after
// a partition.
func (p *Proxy) pump(l *link, src, dst net.Conn, dir Direction) {
	defer p.wg.Done()
	defer func() {
		l.close(false)
		p.mu.Lock()
		delete(p.links, l)
		p.mu.Unlock()
	}()
	buf := make([]byte, chunkSize)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.stallWhileBlackholed(l, dir) {
				return
			}
			if lat := time.Duration(p.latency.Load()); lat > 0 {
				if !sleepOrDone(l, lat) {
					return
				}
			}
			// Pace before delivering so the shaped rate bounds when bytes
			// arrive, not just the long-run average.
			if bw := p.bandwidth.Load(); bw > 0 {
				d := time.Duration(int64(n) * int64(time.Second) / bw)
				if !sleepOrDone(l, d) {
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			p.forwarded[dir].Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}

// stallWhileBlackholed blocks while the direction is blackholed; false
// means the link died while stalled.
func (p *Proxy) stallWhileBlackholed(l *link, dir Direction) bool {
	for p.blackholed(dir) {
		if !sleepOrDone(l, pollInterval) {
			return false
		}
	}
	select {
	case <-l.done:
		return false
	default:
		return true
	}
}

func sleepOrDone(l *link, d time.Duration) bool {
	select {
	case <-l.done:
		return false
	case <-time.After(d):
		return true
	}
}
