package client

import (
	"net"
	"strings"
	"testing"

	"mdv/internal/provider"
	"mdv/internal/rdf"
)

func serveProvider(t *testing.T, name string) (*provider.Provider, string) {
	t.Helper()
	p, err := provider.New(name, rdf.NewSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return p, addr
}

// deadAddr returns an address nothing listens on (bound once to reserve
// it, then released).
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// dialName connects through the dialer and returns the name of the node it
// landed on.
func dialName(t *testing.T, d *MultiDialer) string {
	t.Helper()
	c, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	topo, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	return topo.Name
}

// TestMultiDialerStickyAndRotation: a successful endpoint stays the first
// choice across dials (one connection target in a healthy deployment);
// when it dies the dialer rotates to the next live endpoint and sticks
// there.
func TestMultiDialerStickyAndRotation(t *testing.T) {
	p1, a1 := serveProvider(t, "p1")
	_, a2 := serveProvider(t, "p2")
	d, err := NewMultiDialer([]string{a1, a2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dialName(t, d); got != "p1" {
		t.Fatalf("first dial landed on %q, want p1", got)
	}
	if got := dialName(t, d); got != "p1" {
		t.Fatalf("repeat dial landed on %q, want p1 (sticky)", got)
	}
	p1.Close()
	if got := dialName(t, d); got != "p2" {
		t.Fatalf("dial after p1 died landed on %q, want p2", got)
	}
	if got := dialName(t, d); got != "p2" {
		t.Fatalf("repeat dial landed on %q, want p2 (stickiness follows the failover)", got)
	}
}

// TestMultiDialerAllFail: when no endpoint answers, the error aggregates
// every endpoint's failure so the operator sees the whole picture.
func TestMultiDialerAllFail(t *testing.T) {
	a1, a2 := deadAddr(t), deadAddr(t)
	d, err := NewMultiDialer([]string{a1, a2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Dial()
	if err == nil {
		t.Fatal("dial succeeded with no live endpoints")
	}
	msg := err.Error()
	if !strings.Contains(msg, "all 2 provider endpoints failed") {
		t.Fatalf("error %q does not aggregate the failure count", msg)
	}
	if !strings.Contains(msg, a1) || !strings.Contains(msg, a2) {
		t.Fatalf("error %q does not name both endpoints", msg)
	}
}

// TestMultiDialerRejectsStaleEpoch: once the dialer has seen epoch N, an
// endpoint announcing a lower term (a resurrected stale primary) is
// treated as failed, not connected to — writes must never land on a dead
// history.
func TestMultiDialerRejectsStaleEpoch(t *testing.T) {
	promoted, err := provider.OpenDurable("r1", rdf.NewSchema(), t.TempDir(),
		provider.DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Promote(); err != nil { // epoch 2
		t.Fatal(err)
	}
	promotedAddr, err := promoted.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := provider.OpenDurable("old-primary", rdf.NewSchema(), t.TempDir(),
		provider.DurableOptions{}) // epoch 1
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	staleAddr, err := stale.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewMultiDialer([]string{promotedAddr, staleAddr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PeerEpoch(); got != 2 {
		t.Fatalf("promoted node announced epoch %d, want 2", got)
	}
	c.Close()
	if d.Epoch() != 2 {
		t.Fatalf("dialer recorded epoch %d, want 2", d.Epoch())
	}

	// With the promoted node gone, the only answering endpoint is the
	// stale one — and connecting to it would hand writes to a dead history.
	promoted.Close()
	_, err = d.Dial()
	if err == nil {
		t.Fatal("dial succeeded against a stale-epoch endpoint")
	}
	if !strings.Contains(err.Error(), "stale epoch 1") {
		t.Fatalf("error %q does not name the stale epoch", err)
	}
}
