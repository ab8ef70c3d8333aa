package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{ID: 42, Kind: "test", Body: json.RawMessage(`{"x":1}`)}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Kind != "test" || string(out.Body) != `{"x":1}` {
		t.Errorf("round trip: %+v", out)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	big := &Message{ID: 1, Body: json.RawMessage(`"` + strings.Repeat("x", MaxMessageSize) + `"`)}
	if err := WriteMessage(&bytes.Buffer{}, big); err == nil {
		t.Error("oversized write accepted")
	}
	// A forged oversized length prefix is rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteMessage(&buf, &Message{ID: 1, Kind: "k"})
	data := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("truncated message accepted")
	}
	if _, err := ReadMessage(bytes.NewReader(data[:2])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadMessageGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("xyz")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("non-JSON payload accepted")
	}
}

type echoReq struct {
	Text string `json:"text"`
}

func echoServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
		switch kind {
		case "echo":
			var req echoReq
			if err := Decode(body, &req); err != nil {
				return nil, err
			}
			return &echoReq{Text: req.Text}, nil
		case "fail":
			return nil, fmt.Errorf("deliberate failure")
		case "push-me":
			frame, err := EncodeNotice("poke", &echoReq{Text: "pushed"})
			if err != nil {
				return nil, err
			}
			go conn.Notify(frame)
			return nil, nil
		default:
			return nil, fmt.Errorf("unknown kind %q", kind)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestClientServerCall(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoReq
	if err := c.Call("echo", &echoReq{Text: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello" {
		t.Errorf("echo = %q", resp.Text)
	}
	// Errors propagate.
	if err := c.Call("fail", nil, nil); err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("error propagation: %v", err)
	}
	// Unknown kinds error rather than hang.
	if err := c.Call("nope", nil, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	// Connection keeps working after errors.
	if err := c.Call("echo", &echoReq{Text: "again"}, &resp); err != nil || resp.Text != "again" {
		t.Errorf("post-error call: %v %q", err, resp.Text)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := fmt.Sprintf("g%d-%d", g, i)
				var resp echoReq
				if err := c.Call("echo", &echoReq{Text: want}, &resp); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.Text != want {
					t.Errorf("cross-talk: got %q want %q", resp.Text, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerPush(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan string, 1)
	c.OnPush = func(m *Message) {
		var req echoReq
		json.Unmarshal(m.Body, &req)
		got <- m.Kind + ":" + req.Text
	}
	if err := c.Call("push-me", nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "poke:pushed" {
			t.Errorf("push = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push not delivered")
	}
}

func TestCallAfterClose(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-c.Done()
	if err := c.Call("echo", &echoReq{Text: "x"}, nil); err == nil {
		t.Error("call on closed connection succeeded")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := echoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client not unblocked by server close")
	}
	if err := c.Call("echo", nil, nil); err == nil {
		t.Error("call after server close succeeded")
	}
}

func TestOnDisconnect(t *testing.T) {
	disconnected := make(chan struct{}, 1)
	srv, err := NewServer("127.0.0.1:0", func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
		conn.Tag.Store("tagged")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.OnDisconnect = func(conn *ServerConn) {
		if tag, _ := conn.Tag.Load().(string); tag == "tagged" {
			disconnected <- struct{}{}
		}
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call("anything", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-disconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect not invoked")
	}
}
