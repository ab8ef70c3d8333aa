package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestServerIdleTimeoutClosesDeadPeer: a peer that connects and then goes
// silent (no heartbeats, no requests) is closed within the idle bound.
func TestServerIdleTimeoutClosesDeadPeer(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", func(*ServerConn, string, json.RawMessage) (interface{}, error) {
		return nil, nil
	}, Config{IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The server must hang up on us; a read unblocks with EOF well within
	// a few idle intervals.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("silent peer not disconnected")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the silent peer past the idle bound")
	}
}

// TestClientHeartbeatDetectsDeadServer: a server that accepts and then
// never answers is declared dead by the client heartbeat within the bound.
func TestClientHeartbeatDetectsDeadServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the connect handshake so the dial succeeds, then
			// swallow everything: a peer that dies after connecting.
			go func() {
				if m, err := ReadMessage(nc); err == nil && m.Kind == KindHello {
					body, _ := json.Marshal(&helloBody{Version: ProtocolVersion})
					WriteMessage(nc, &Message{ID: m.ID, Body: body})
				}
				io.Copy(io.Discard, nc)
			}()
		}
	}()
	c, err := DialConfig(ln.Addr().String(), Config{HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client did not detect the dead server")
	}
}

// TestHeartbeatKeepsIdleConnAlive: with both heartbeats on, a connection
// with no application traffic stays up well past the idle bound, and both
// sides measure an RTT.
func TestHeartbeatKeepsIdleConnAlive(t *testing.T) {
	var connMu sync.Mutex
	var serverConn *ServerConn
	srv, err := NewServerConfig("127.0.0.1:0", func(conn *ServerConn, _ string, _ json.RawMessage) (interface{}, error) {
		connMu.Lock()
		serverConn = conn
		connMu.Unlock()
		return nil, nil
	}, Config{HeartbeatInterval: 30 * time.Millisecond, IdleTimeout: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialConfig(srv.Addr(), Config{HeartbeatInterval: 30 * time.Millisecond, IdleTimeout: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("anything", nil, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // several idle bounds of silence
	select {
	case <-c.Done():
		t.Fatal("heartbeated idle connection was closed")
	default:
	}
	if err := c.Call("anything", nil, nil); err != nil {
		t.Fatalf("idle connection unusable: %v", err)
	}
	if c.RTT() <= 0 {
		t.Error("client measured no heartbeat RTT")
	}
	connMu.Lock()
	sc := serverConn
	connMu.Unlock()
	if sc.RTT() <= 0 {
		t.Error("server measured no heartbeat RTT")
	}
}

// TestNotifyOverflowDisconnects: a push flood to a peer that is not
// reading overflows the bounded queue; Notify reports ErrSlowSubscriber
// and the connection is closed instead of blocking the publisher.
func TestNotifyOverflowDisconnects(t *testing.T) {
	attached := make(chan *ServerConn, 1)
	srv, err := NewServerConfig("127.0.0.1:0", func(conn *ServerConn, kind string, _ json.RawMessage) (interface{}, error) {
		if kind == "attach" {
			attached <- conn
		}
		return nil, nil
	}, Config{SendQueue: 4, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A raw peer that never reads: its TCP receive buffer fills, the
	// writer goroutine stalls on the deadline, the queue overflows.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteMessage(nc, &Message{ID: 1, Kind: "attach"}); err != nil {
		t.Fatal(err)
	}
	conn := <-attached
	// Large payloads defeat socket buffering quickly. The frame is built
	// once, as a fan-out push is, so the loop only enqueues.
	flood, err := EncodeNotice("flood", make([]byte, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("queue never overflowed")
		}
		err := conn.Notify(flood)
		if errors.Is(err, ErrSlowSubscriber) {
			break
		}
		if errors.Is(err, ErrClosed) {
			t.Fatal("connection closed before overflow was reported")
		}
		if err != nil {
			t.Fatalf("notify: %v", err)
		}
	}
	// After the overflow the conn is dead: further notifies fail fast.
	after, err := EncodeNotice("after", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Notify(after); err == nil {
		t.Error("notify on overflowed connection succeeded")
	}
}

// TestServerCloseJoinsAllGoroutines hammers accept/close concurrency: no
// connection accepted around Close may leak its goroutines or socket
// (the -race build is the real assertion here).
func TestServerCloseJoinsAllGoroutines(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv, err := NewServerConfig("127.0.0.1:0", func(*ServerConn, string, json.RawMessage) (interface{}, error) {
			return nil, nil
		}, Config{HeartbeatInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(srv.Addr())
				if err != nil {
					return
				}
				c.Call("x", nil, nil)
				c.Close()
			}()
		}
		// Close races the dials: some conns are pre-accept, some
		// mid-registration, some serving.
		srv.Close()
		wg.Wait()
		if n := srv.NumConns(); n != 0 {
			t.Fatalf("iteration %d: %d connections survived Close", i, n)
		}
	}
}

// TestCallContextTimeout: a stalled request respects the context deadline
// and is classified retryable; cancellation is fatal.
func TestCallContextTimeout(t *testing.T) {
	release := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(_ *ServerConn, kind string, _ json.RawMessage) (interface{}, error) {
		if kind == "stall" {
			<-release
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = c.CallContext(ctx, "stall", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !IsRetryable(err) {
		t.Error("timeout not classified retryable")
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	err = c.CallContext(cctx, "stall", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if IsRetryable(err) {
		t.Error("cancellation classified retryable")
	}
}

// TestErrorClassification: remote application errors are fatal; transport
// errors are retryable.
func TestErrorClassification(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(*ServerConn, string, json.RawMessage) (interface{}, error) {
		return nil, fmt.Errorf("no such document")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("x", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "no such document" {
		t.Fatalf("err = %#v, want RemoteError", err)
	}
	if IsRetryable(err) {
		t.Error("remote application error classified retryable")
	}
	// Transport failure: server gone.
	srv.Close()
	<-c.Done()
	if err := c.Call("x", nil, nil); !IsRetryable(err) {
		t.Errorf("closed-connection error %v not classified retryable", err)
	}
	if IsRetryable(nil) {
		t.Error("nil error classified retryable")
	}
}

// TestPing measures a round trip through the wire-level ping handler.
func TestPing(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(*ServerConn, string, json.RawMessage) (interface{}, error) {
		t.Error("ping reached the application handler")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rtt, err := c.Ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	if c.RTT() != rtt {
		t.Errorf("RTT() = %v, want %v", c.RTT(), rtt)
	}
}
