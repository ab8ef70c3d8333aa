package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func nopHandler(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
	return nil, nil
}

// TestHandshakeVersionMatch verifies same-version peers connect and the
// connection then carries calls normally.
func TestHandshakeVersionMatch(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", nopHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("dial with matching version: %v", err)
	}
	defer c.Close()
	if err := c.Call("anything", nil, nil); err != nil {
		t.Fatalf("call after handshake: %v", err)
	}
}

// TestHandshakeVersionSkew is the regression test for mixed-version
// deployments: a client announcing a skewed protocol version must be
// refused at connect with a descriptive RemoteError naming both versions,
// not allowed through to mis-decode frames later.
func TestHandshakeVersionSkew(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", nopHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, err = DialConfig(s.Addr(), Config{ProtocolVersion: ProtocolVersion + 1})
	if err == nil {
		t.Fatal("dial with skewed version succeeded, want refusal")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("dial error = %v (%T), want *RemoteError", err, err)
	}
	if !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("error %q does not describe the version mismatch", err)
	}
	ours := fmt.Sprintf("v%d", ProtocolVersion)
	theirs := fmt.Sprintf("v%d", ProtocolVersion+1)
	if !strings.Contains(err.Error(), ours) || !strings.Contains(err.Error(), theirs) {
		t.Fatalf("error %q does not name both versions", err)
	}
	if IsRetryable(err) {
		t.Fatal("version mismatch classified retryable; reconnecting cannot fix it")
	}
}

// TestHandshakeServerSkew covers the other direction: the server speaks a
// newer version than the dialing client.
func TestHandshakeServerSkew(t *testing.T) {
	s, err := NewServerConfig("127.0.0.1:0", nopHandler, Config{ProtocolVersion: ProtocolVersion + 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = Dial(s.Addr())
	if err == nil {
		t.Fatal("dial to newer-version server succeeded, want refusal")
	}
	if !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("error %q does not describe the version mismatch", err)
	}
}

// TestHandshakeRefusesV4Peer: protocol v5 made resources answers binary
// frames, which a v4 peer would misread. The hello exchange and its error
// stay JSON, so either side of a v4/v5 pair reads the mismatch error.
func TestHandshakeRefusesV4Peer(t *testing.T) {
	if ProtocolVersion != 5 {
		t.Fatalf("ProtocolVersion = %d, want 5", ProtocolVersion)
	}
	s, err := NewServer("127.0.0.1:0", nopHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = DialConfig(s.Addr(), Config{ProtocolVersion: 4})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "protocol version mismatch: peer speaks v4, this node speaks v5") {
		t.Fatalf("v4 client against a v5 server: err = %v, want the version-mismatch RemoteError", err)
	}

	old, err := NewServerConfig("127.0.0.1:0", nopHandler, Config{ProtocolVersion: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	_, err = Dial(old.Addr())
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "protocol version mismatch: peer speaks v5, this node speaks v4") {
		t.Fatalf("v5 client against a v4 server: err = %v, want the version-mismatch RemoteError", err)
	}
}
