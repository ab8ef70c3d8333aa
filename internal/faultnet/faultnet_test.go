package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes everything back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// echoOnce writes msg and reads back len(msg) bytes, returning the round
// trip duration.
func echoOnce(t *testing.T, c net.Conn, msg []byte) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %q want %q", got, msg)
	}
	return time.Since(start)
}

func TestProxyForwards(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	echoOnce(t, c, []byte("hello through the proxy"))
	if got := p.ActiveLinks(); got != 1 {
		t.Fatalf("ActiveLinks = %d, want 1", got)
	}
	// A pump counts a chunk after writing it, so the echo can be read
	// before either counter has moved.
	deadline := time.Now().Add(2 * time.Second)
	for (p.Forwarded(Up) == 0 || p.Forwarded(Down) == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if up, down := p.Forwarded(Up), p.Forwarded(Down); up == 0 || down == 0 {
		t.Fatalf("Forwarded = up %d down %d, want both > 0", up, down)
	}
}

func TestLatencyInjection(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	msg := []byte("ping")
	base := echoOnce(t, c, msg)

	const lat = 50 * time.Millisecond
	p.SetLatency(lat)
	// Round trip crosses the proxy twice, so it must carry >= 2x latency.
	rtt := echoOnce(t, c, msg)
	if rtt < 2*lat {
		t.Fatalf("rtt with %v injected latency = %v (base %v), want >= %v", lat, rtt, base, 2*lat)
	}
	p.SetLatency(0)
	if rtt := echoOnce(t, c, msg); rtt > lat {
		t.Fatalf("rtt after clearing latency = %v, want < %v", rtt, lat)
	}
}

func TestBandwidthThrottle(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	// 64 KiB at 256 KiB/s should take ~250ms each way.
	p.SetBandwidth(256 << 10)
	c := dialProxy(t, p)
	msg := bytes.Repeat([]byte("x"), 64<<10)
	if d := echoOnce(t, c, msg); d < 250*time.Millisecond {
		t.Fatalf("64KiB echo at 256KiB/s took %v, want >= 250ms", d)
	}
}

func TestBlackholeStallsAndHeals(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	echoOnce(t, c, []byte("warm"))

	p.SetBlackhole(true)
	if _, err := c.Write([]byte("lost in the void")); err != nil {
		t.Fatalf("write into blackhole: %v", err)
	}
	// Nothing must come back while the hole is open.
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("read during blackhole returned %d bytes, want timeout", n)
	}
	c.SetReadDeadline(time.Time{})

	// Heal: the held bytes flow and the echo completes.
	p.SetBlackhole(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := make([]byte, len("lost in the void"))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Errorf("read after heal: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("echo did not complete after blackhole healed")
	}
}

func TestHalfOpenDirectionalBlackhole(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	echoOnce(t, c, []byte("warm"))

	// Down blackholed: requests reach the server but replies vanish.
	p.SetBlackholeDir(Down, true)
	if _, err := c.Write([]byte("half-open")); err != nil {
		t.Fatalf("write: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Forwarded(Up) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Forwarded(Up) == 0 {
		t.Fatal("upstream did not forward during down-only blackhole")
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("read during down blackhole returned %d bytes, want timeout", n)
	}
	c.SetReadDeadline(time.Time{})

	p.SetBlackholeDir(Down, false)
	got := make([]byte, len("half-open"))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestResetAllKillsMidStream(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	echoOnce(t, c, []byte("alive"))

	p.ResetAll()
	// The connection must error promptly, not hang.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read after ResetAll succeeded, want connection error")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("read after ResetAll timed out, want prompt connection error")
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.ActiveLinks() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.ActiveLinks(); got != 0 {
		t.Fatalf("ActiveLinks after ResetAll = %d, want 0", got)
	}
}

func TestRefuseNew(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	p.SetRefuseNew(true)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		// Accept backlog raced the refuse flag; either outcome is a
		// failed connection, which is what we want.
		return
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("connection refused-new proxy stayed open")
	}

	p.SetRefuseNew(false)
	c2 := dialProxy(t, p)
	echoOnce(t, c2, []byte("back"))
}

func TestProxyCloseJoinsPumps(t *testing.T) {
	ln := echoServer(t)
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	for i := 0; i < 4; i++ {
		c := dialProxy(t, p)
		echoOnce(t, c, []byte("conn"))
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := p.ActiveLinks(); got != 0 {
		t.Fatalf("ActiveLinks after Close = %d, want 0", got)
	}
	if _, err := net.Dial("tcp", p.Addr()); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}
