package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"
)

// readRawFrame reads one frame off nc and returns its payload bytes.
func readRawFrame(t *testing.T, nc net.Conn) string {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(nc, payload); err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// rawConn dials srv without the client's handshake, so a test can send any
// request and read the exact reply bytes.
func rawConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// TestControlFrameBytes pins the exact bytes of the replies the wire layer
// makes itself (ping, hello), of a handler error, and the shape of the
// server's heartbeat ping, so a change to how frames are queued cannot
// change a byte a peer reads.
func TestControlFrameBytes(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(*ServerConn, string, json.RawMessage) (interface{}, error) {
		return nil, errors.New("no such document")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := rawConn(t, srv)
	mismatch := fmt.Sprintf("wire: protocol version mismatch: peer speaks v%d, this node speaks v%d; upgrade the older side before connecting", ProtocolVersion-1, ProtocolVersion)
	for _, c := range []struct {
		name string
		req  *Message
		want string
	}{
		{"ping reply", &Message{ID: 7, Kind: KindPing}, `{"id":7}`},
		{"hello echo", &Message{ID: 8, Kind: KindHello, Body: json.RawMessage(fmt.Sprintf(`{"version":%d}`, ProtocolVersion))},
			fmt.Sprintf(`{"id":8,"body":{"version":%d}}`, ProtocolVersion)},
		{"version mismatch", &Message{ID: 9, Kind: KindHello, Body: json.RawMessage(fmt.Sprintf(`{"version":%d}`, ProtocolVersion-1))},
			`{"id":9,"error":"` + mismatch + `"}`},
		{"malformed hello", &Message{ID: 10, Kind: KindHello, Body: json.RawMessage(`[1]`)},
			`{"id":10,"error":"wire: malformed hello: json: cannot unmarshal array into Go value of type wire.helloBody"}`},
		{"handler error", &Message{ID: 11, Kind: "lookup"}, `{"id":11,"error":"no such document"}`},
	} {
		if err := WriteMessage(nc, c.req); err != nil {
			t.Fatal(err)
		}
		if got := readRawFrame(t, nc); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	withEpoch, err := NewServerConfig("127.0.0.1:0", nopHandler, Config{EpochFn: func() uint64 { return 42 }})
	if err != nil {
		t.Fatal(err)
	}
	defer withEpoch.Close()
	nc = rawConn(t, withEpoch)
	if err := WriteMessage(nc, &Message{ID: 1, Kind: KindHello, Body: json.RawMessage(fmt.Sprintf(`{"version":%d}`, ProtocolVersion))}); err != nil {
		t.Fatal(err)
	}
	if got, want := readRawFrame(t, nc), fmt.Sprintf(`{"id":1,"body":{"version":%d,"epoch":42}}`, ProtocolVersion); got != want {
		t.Errorf("hello echo with an epoch:\n got %s\nwant %s", got, want)
	}

	beating, err := NewServerConfig("127.0.0.1:0", nopHandler, Config{HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer beating.Close()
	ping := readRawFrame(t, rawConn(t, beating))
	if !regexp.MustCompile(`^\{"id":0,"kind":"ping","body":\{"t":[1-9][0-9]*\}\}$`).MatchString(ping) {
		t.Errorf("heartbeat ping = %s, want ID 0, kind ping and a body of one field t", ping)
	}
}

// TestOversizedNoticeKeepsConnection: a notice too large for the wire is
// refused when it is framed, with an error that names its size, and never
// reaches the queue; the connection then answers a call and delivers a
// small push as before.
func TestOversizedNoticeKeepsConnection(t *testing.T) {
	attached := make(chan *ServerConn, 1)
	srv, err := NewServer("127.0.0.1:0", func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
		if kind == "attach" {
			attached <- conn
		}
		return &echoReq{Text: kind}, nil
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
	pushes := make(chan string, 1)
	c.OnPush = func(m *Message) {
		var req echoReq
		json.Unmarshal(m.Body, &req)
		pushes <- m.Kind + ":" + req.Text
	}
	if err := c.Call("attach", nil, nil); err != nil {
		t.Fatal(err)
	}
	conn := <-attached

	big := strings.Repeat("x", MaxMessageSize)
	frame, err := EncodeNotice("big", big)
	size := len(`{"id":0,"kind":"big","body":""}`) + len(big)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d bytes exceeds limit", size)) {
		t.Fatalf("framing a %d-byte notice: err = %v, want one naming its size", size, err)
	}
	// With no frame there is nothing to queue.
	if frame != nil {
		t.Fatalf("refused notice left a %d-byte frame", len(frame))
	}

	var resp echoReq
	if err := c.Call("echo", nil, &resp); err != nil || resp.Text != "echo" {
		t.Fatalf("call after the refused notice: %v, %+v", err, resp)
	}
	small, err := EncodeNotice("poke", &echoReq{Text: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Notify(small); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-pushes:
		if got != "poke:small" {
			t.Errorf("push = %q, want poke:small", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("small push not delivered after the refused notice")
	}
}
