// Package wire implements MDV's network protocol: length-prefixed messages
// over TCP, with synchronous request/response calls and asynchronous server
// pushes (the MDP publishing changesets to attached LMRs). Messages whose
// size grows with the metadata they carry are binary frames: changeset
// pushes (EncodePushFrame) and answers that carry resources (query, list
// and browse; EncodeResourcesFrame). Requests, the other responses, errors
// and control pushes are JSON envelopes. The same message plumbing serves
// both tiers' servers (MDP and LMR).
//
// Fault tolerance. Wide-area links stall, half-die, and reset; the wire
// layer bounds the damage:
//
//   - Every accepted connection owns a bounded outbound queue of frames,
//     each built and sized by its sender, drained by a dedicated writer
//     goroutine. Server pushes (Notify) never block on a
//     peer's TCP window: a full queue means the peer is not draining, the
//     connection is closed, and the caller gets ErrSlowSubscriber. The
//     subscriber reconnects and resumes gap-free from its changelog cursor.
//   - Reads and writes carry deadlines (Config.IdleTimeout /
//     Config.WriteTimeout), so a half-open peer is detected within a
//     configured bound instead of an OS TCP timeout.
//   - Both sides heartbeat: clients issue request pings (KindPing) and
//     judge liveness by inbound silence; servers push pings from the
//     writer goroutine and measure per-connection RTT from the echoed
//     pongs. Liveness traffic flows on dedicated goroutines, so a slow
//     request handler never starves it.
//   - Errors are classified: RemoteError (the peer's handler failed —
//     fatal, retrying won't help) versus transport errors (timeouts,
//     resets, closed connections — retryable on a fresh connection), see
//     IsRetryable.
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdv/internal/core"
	"mdv/internal/rdf"
)

// MaxMessageSize bounds a single message (16 MiB): a malformed or malicious
// length prefix must not make a node allocate unboundedly.
const MaxMessageSize = 16 << 20

// DefaultSendQueue is the per-connection outbound queue capacity when
// Config.SendQueue is zero.
const DefaultSendQueue = 256

// KindPing and KindPong are wire-level liveness messages, handled below
// the request handler. A client pings with a normal request (empty
// response); a server pings with an ID-0 push carrying a timestamp the
// client echoes back as a pong push.
const (
	KindPing = "ping"
	KindPong = "pong"
)

// ProtocolVersion is this build's wire protocol version. Dialing clients
// send it in a hello request before anything else; servers verify it and
// echo their own. Either side failing the comparison reports a descriptive
// RemoteError and refuses the connection, so mixed-version deployments
// (MDP/LMR/replica) fail loudly at connect instead of mis-decoding frames.
//
// v2 added epochs: the server's hello echo carries its replication epoch,
// and replication/write payloads grew epoch fields.
//
// v3 added interest-group coalesced delivery: changeset pushes may carry a
// member_credits ownership map, and resume replays may arrive as
// changeset_batch pushes.
//
// v4 made changeset pushes binary frames (EncodePushFrame) carrying the
// changeset bytes of the changelog's publish record. A subscribe response
// has since dropped its copy of the initial fill, which arrives as a push
// anyway; that needs no new version, because JSON decoding ignores the
// field an older server sends and leaves it empty for an older client.
//
// v5 made answers that carry resources (ResourcesResponse: LMR query and
// list_resources, MDP browse) binary frames (EncodeResourcesFrame). The
// hello exchange and error responses stay JSON envelopes, so a v4 peer
// still reads the version-mismatch error.
const ProtocolVersion = 5

// KindHello is the version handshake request, handled below the request
// handler like the liveness messages.
const KindHello = "hello"

// helloBody carries one side's protocol version and, in the server's
// echo, its replication epoch (0 when the node has none: an LMR). Exposing the epoch at handshake time lets a
// failover-aware dialer reject a stale ex-primary before sending it
// anything.
type helloBody struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// pingBody carries the sender's send timestamp so the echoed pong yields
// an RTT without any shared clock.
type pingBody struct {
	T int64 `json:"t"`
}

// Config tunes a connection's fault-tolerance behavior. The zero value
// disables all of it (no deadlines, no heartbeat, default queue size),
// which matches the pre-fault-tolerant wire layer.
type Config struct {
	// WriteTimeout bounds each message write. A peer that stops draining
	// its socket fails the write within this bound; the connection is then
	// closed. Zero disables the deadline.
	WriteTimeout time.Duration
	// IdleTimeout bounds inbound silence: if no message (of any kind)
	// arrives within it, the peer is considered dead and the connection is
	// closed. Heartbeats keep healthy connections under the bound. Zero
	// disables the deadline; on clients with a heartbeat configured, the
	// effective bound defaults to 3x the heartbeat interval.
	IdleTimeout time.Duration
	// HeartbeatInterval is the ping period. On a client it triggers
	// request pings (RTT measured at the client); on a server the writer
	// goroutine pushes pings (RTT measured per connection from the echoed
	// pong). Zero disables heartbeats.
	HeartbeatInterval time.Duration
	// SendQueue is the per-connection outbound queue capacity (messages).
	// Zero means DefaultSendQueue.
	SendQueue int
	// ProtocolVersion overrides the version announced/verified in the
	// connect handshake. Zero means the package's ProtocolVersion; tests
	// use it to simulate a version-skewed peer.
	ProtocolVersion int
	// EpochFn, set on servers that participate in replication, supplies
	// the node's current epoch for the hello echo. Nil announces epoch 0
	// (no epoch).
	EpochFn func() uint64
}

func (c Config) protocolVersion() int {
	if c.ProtocolVersion != 0 {
		return c.ProtocolVersion
	}
	return ProtocolVersion
}

func (c Config) sendQueue() int {
	if c.SendQueue > 0 {
		return c.SendQueue
	}
	return DefaultSendQueue
}

// idleBound is the effective inbound-silence bound.
func (c Config) idleBound() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	if c.HeartbeatInterval > 0 {
		return 3 * c.HeartbeatInterval
	}
	return 0
}

// Message is the wire unit. Requests carry a Kind and Body; responses echo
// the request ID and carry a Body or an Error; pushes are server-initiated
// messages with ID 0 and a Kind.
type Message struct {
	ID    uint64          `json:"id"`
	Kind  string          `json:"kind,omitempty"`
	Error string          `json:"error,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
	// Pushes holds the decoded changesets of a binary push frame (Kind
	// KindChangeset or KindChangesetBatch, no Body), in publish order.
	Pushes []ChangesetPush `json:"-"`
	// Resources holds the decoded answer of a binary resources frame (no
	// Kind, no Body). It is non-nil for such a frame, empty for an empty
	// answer, and nil for every other message.
	Resources []*rdf.Resource `json:"-"`
}

// WriteMessage frames one message (EncodeMessage) and writes it with a
// single Write, so a net.Conn pays one syscall per message.
func WriteMessage(w io.Writer, m *Message) error {
	frame, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// EncodeMessage marshals and frames a message into a standalone byte slice
// that can be written verbatim to any connection.
func EncodeMessage(m *Message) ([]byte, error) {
	return encodeEnvelope(m, "message")
}

// EncodeNotice frames a server push (ID 0) of the given kind with body
// marshalled as its JSON body, ready for ServerConn.Notify or NotifySync.
func EncodeNotice(kind string, body interface{}) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %s notice: %w", kind, err)
	}
	return encodeEnvelope(&Message{Kind: kind, Body: payload}, kind+" notice")
}

// encodeEnvelope marshals and frames a JSON envelope; it is the only place
// one is sized. what names the message in the error for one larger than
// MaxMessageSize.
func encodeEnvelope(m *Message, what string) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	if len(payload) > MaxMessageSize {
		return nil, fmt.Errorf("wire: %s of %d bytes exceeds limit", what, len(payload))
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)
	return frame, nil
}

// readChunk is the most ReadMessage allocates for a payload before any of
// it has arrived. Frames up to this size are read with one allocation.
const readChunk = 256 << 10

// ReadMessage reads one framed message: a JSON envelope, a binary changeset
// push frame or a binary resources answer frame, told apart by the
// payload's first byte.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, fmt.Errorf("wire: incoming message of %d bytes exceeds limit", n)
	}
	// The header alone does not get MaxMessageSize allocated: the buffer
	// starts at readChunk and doubles as the payload arrives.
	payload := make([]byte, min(n, readChunk))
	_, err := io.ReadFull(r, payload)
	for err == nil && len(payload) < int(n) {
		off := len(payload)
		payload = append(payload, make([]byte, min(off, int(n)-off))...)
		if _, err = io.ReadFull(r, payload[off:]); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return nil, err
	}
	if n > 0 {
		switch payload[0] {
		case tagPush, tagPushBatch:
			return decodePushFrame(payload)
		case tagResources:
			return decodeResourcesFrame(payload)
		}
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return &m, nil
}

// Binary changeset push frames. After the 4-byte length comes a tag byte
// that no JSON envelope starts with, then
//
//	push = uvarint(seq) reset varint(pub_unix_nano) changeset
//
// where reset is 0x00 or 0x01 and changeset is the self-delimiting
// core.AppendChangeset encoding. A tagPush frame holds one push; a
// tagPushBatch frame holds two or more back to back (a coalesced replay).
const (
	tagPush      = 0x01
	tagPushBatch = 0x02
)

// EncodedPush is one changeset push whose changeset is already encoded
// (core.AppendChangeset), as a changelog publish record holds it.
type EncodedPush struct {
	Seq         uint64
	Reset       bool
	PubUnixNano int64
	Changeset   []byte
}

// EncodePushFrame frames one push, or several as a batch, into a byte
// slice that can be enqueued verbatim on any number of connections
// (ServerConn.Notify). The changeset bytes are copied, never re-encoded.
func EncodePushFrame(pushes []EncodedPush) ([]byte, error) {
	size := 1
	for _, p := range pushes {
		size += 2*binary.MaxVarintLen64 + 1 + len(p.Changeset)
	}
	frame := make([]byte, 4, 4+size)
	tag := byte(tagPush)
	if len(pushes) > 1 {
		tag = tagPushBatch
	}
	frame = append(frame, tag)
	for _, p := range pushes {
		frame = binary.AppendUvarint(frame, p.Seq)
		reset := byte(0)
		if p.Reset {
			reset = 1
		}
		frame = append(frame, reset)
		frame = binary.AppendVarint(frame, p.PubUnixNano)
		frame = append(frame, p.Changeset...)
	}
	if len(frame)-4 > MaxMessageSize {
		return nil, fmt.Errorf("wire: push frame of %d bytes exceeds limit", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

var errMalformedPush = errors.New("wire: malformed push frame header")

// decodePushFrame decodes a binary push frame's payload (tag onwards). It
// accepts only canonical frames, the ones EncodePushFrame produces.
func decodePushFrame(payload []byte) (*Message, error) {
	m := &Message{Kind: KindChangeset}
	if payload[0] == tagPushBatch {
		m.Kind = KindChangesetBatch
	}
	b := payload[1:]
	for len(b) > 0 {
		seq, n := canonicalUvarint(b)
		if n <= 0 || n >= len(b) || b[n] > 1 {
			return nil, errMalformedPush
		}
		push := ChangesetPush{Seq: seq, Reset: b[n] == 1}
		b = b[n+1:]
		nano, n := canonicalUvarint(b)
		if n <= 0 {
			return nil, errMalformedPush
		}
		push.PubUnixNano = int64(nano>>1) ^ -int64(nano&1)
		cs, used, err := core.DecodeChangeset(b[n:])
		if err != nil {
			return nil, fmt.Errorf("wire: push frame: %w", err)
		}
		push.Changeset = cs
		b = b[n+used:]
		m.Pushes = append(m.Pushes, push)
	}
	if want := m.Kind == KindChangesetBatch; len(m.Pushes) == 0 || (len(m.Pushes) > 1) != want {
		return nil, fmt.Errorf("wire: %s frame with %d pushes", m.Kind, len(m.Pushes))
	}
	return m, nil
}

// Binary resources answer frames. A response whose result is a
// *ResourcesResponse is, after the 4-byte length,
//
//	answer = 0x03 uvarint(id) resources
//
// where id is the request's (never 0) and resources is the
// core.AppendResources encoding, filling the rest of the frame. ReadMessage
// puts the decoded list in Message.Resources.
const tagResources = 0x03

// EncodeResourcesFrame frames the answer to request id carrying rs.
func EncodeResourcesFrame(id uint64, rs []*rdf.Resource) ([]byte, error) {
	frame := make([]byte, 4, 512)
	frame = append(frame, tagResources)
	frame = binary.AppendUvarint(frame, id)
	frame = core.AppendResources(frame, rs)
	if len(frame)-4 > MaxMessageSize {
		return nil, fmt.Errorf("wire: response of %d bytes exceeds limit", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

// decodeResourcesFrame decodes a resources answer frame's payload (tag
// onwards). It accepts only canonical frames, the ones EncodeResourcesFrame
// produces.
func decodeResourcesFrame(payload []byte) (*Message, error) {
	id, n := canonicalUvarint(payload[1:])
	if n <= 0 || id == 0 {
		return nil, errors.New("wire: malformed resources frame id")
	}
	rs, err := core.DecodeResources(payload[1+n:])
	if err != nil {
		return nil, fmt.Errorf("wire: resources frame: %w", err)
	}
	if rs == nil {
		rs = []*rdf.Resource{}
	}
	return &Message{ID: id, Resources: rs}, nil
}

// canonicalUvarint is binary.Uvarint that also rejects non-minimal
// encodings (n <= 0 on any failure).
func canonicalUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// Error taxonomy.

// ErrClosed is returned for calls on a closed connection.
var ErrClosed = errors.New("wire: connection closed")

// ErrSlowSubscriber is returned by Notify when the connection's outbound
// queue is full: the peer is not draining fast enough, and the connection
// has been closed to protect the publisher. The peer reconnects and
// resumes from its cursor.
var ErrSlowSubscriber = errors.New("wire: send queue overflow (slow subscriber disconnected)")

// RemoteError is an application-level failure reported by the peer's
// request handler. The request reached the peer and was rejected; a fresh
// connection will not change the outcome, so remote errors are fatal
// (never retryable).
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }

// IsRetryable reports whether err is a transport-level failure that a
// fresh connection (possibly after a backoff) may resolve: closed or reset
// connections, I/O timeouts, refused dials, torn streams. Application
// failures (RemoteError) and caller-initiated cancellation are fatal.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	switch {
	case errors.Is(err, ErrClosed),
		errors.Is(err, ErrSlowSubscriber),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ETIMEDOUT):
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// Handler processes one request on a server and returns the response body.
// The conn is provided so handlers can attach push channels.
type Handler func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error)

// Server accepts connections and dispatches requests to a Handler.
type Server struct {
	ln      net.Listener
	handler Handler
	cfg     Config
	mu      sync.Mutex
	conns   map[*ServerConn]bool
	closed  bool
	wg      sync.WaitGroup
	// OnDisconnect is called when a connection closes (for push-channel
	// cleanup). Optional.
	OnDisconnect func(conn *ServerConn)
}

// NewServer starts a server listening on addr (e.g. "127.0.0.1:0") with a
// zero Config (no deadlines, no heartbeat).
func NewServer(addr string, handler Handler) (*Server, error) {
	return NewServerConfig(addr, handler, Config{})
}

// NewServerConfig starts a server with explicit fault-tolerance settings.
func NewServerConfig(addr string, handler Handler, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: handler, cfg: cfg, conns: map[*ServerConn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NumConns returns the number of live accepted connections.
func (s *Server) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops the server and closes all connections. It returns only after
// every per-connection goroutine (reader and writer) has exited, so no
// goroutine or socket outlives it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]*ServerConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := newServerConn(nc, s)
		// Registration and goroutine spawn are one critical section with
		// the closed check: either the conn is fully registered before
		// Close sweeps (so the sweep closes it and wg.Wait joins its
		// goroutines), or Close already ran and the socket is closed here.
		// Nothing accepted can slip between Close's sweep and its Wait.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = true
		s.wg.Add(2)
		go s.serveConn(c)
		go c.writeLoop(&s.wg)
		s.mu.Unlock()
	}
}

func (s *Server) serveConn(c *ServerConn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		if s.OnDisconnect != nil {
			s.OnDisconnect(c)
		}
	}()
	idle := s.cfg.idleBound()
	for {
		if idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		m, err := ReadMessage(c.nc)
		if err != nil {
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		// Liveness traffic is handled below the request handler.
		if m.ID == 0 {
			if m.Kind == KindPong {
				var pb pingBody
				if json.Unmarshal(m.Body, &pb) == nil && pb.T != 0 {
					c.rtt.Store(time.Now().UnixNano() - pb.T)
				}
			}
			continue
		}
		var result interface{}
		switch m.Kind {
		case KindPing:
			// A ping's reply is the bare ID: a nil result.
		case KindHello:
			// A refused hello still gets its error response; the peer
			// closes the connection after reading it.
			result, err = s.hello(m.Body)
		default:
			result, err = s.handler(c, m.Kind, m.Body)
		}
		if c.respond(m.ID, result, err) != nil {
			return
		}
	}
}

// hello answers a version handshake with this node's version and epoch, or
// refuses a peer that speaks another version.
func (s *Server) hello(body json.RawMessage) (interface{}, error) {
	var hb helloBody
	if err := json.Unmarshal(body, &hb); err != nil {
		return nil, fmt.Errorf("wire: malformed hello: %v", err)
	}
	ours := s.cfg.protocolVersion()
	if hb.Version != ours {
		return nil, versionMismatch(hb.Version, ours)
	}
	echo := &helloBody{Version: ours}
	if s.cfg.EpochFn != nil {
		echo.Epoch = s.cfg.EpochFn()
	}
	return echo, nil
}

// versionMismatch is the handshake's refusal, on either side.
func versionMismatch(peer, ours int) error {
	return &RemoteError{Msg: fmt.Sprintf(
		"wire: protocol version mismatch: peer speaks v%d, this node speaks v%d; upgrade the older side before connecting",
		peer, ours)}
}

// respond frames a request's response on the handler goroutine and
// enqueues it. A *ResourcesResponse result becomes a binary answer frame,
// any other result a JSON envelope. A response that cannot be framed (too
// large, or not marshalable) is replaced by an error envelope, so the
// caller gets a RemoteError and the connection stays usable. Responses wait
// for queue space like NotifySync: request processing is serial per
// connection, so the wait is bounded by the writer's own deadline-guarded
// progress.
func (c *ServerConn) respond(id uint64, result interface{}, herr error) error {
	frame, err := encodeResponse(id, result, herr)
	if err != nil {
		if frame, err = EncodeMessage(&Message{ID: id, Error: err.Error()}); err != nil {
			return err
		}
	}
	return c.NotifySync(frame)
}

func encodeResponse(id uint64, result interface{}, herr error) ([]byte, error) {
	if herr != nil {
		return encodeEnvelope(&Message{ID: id, Error: herr.Error()}, "response")
	}
	switch r := result.(type) {
	case nil:
		return encodeEnvelope(&Message{ID: id}, "response")
	case *ResourcesResponse:
		return EncodeResourcesFrame(id, r.Resources)
	}
	body, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal response: %w", err)
	}
	return encodeEnvelope(&Message{ID: id, Body: body}, "response")
}

// ServerConn is one accepted connection. Handlers may keep a reference to
// push frames to it later (Notify, NotifySync). Every queued write is a
// frame its sender built and sized; a bounded queue carries them to a
// dedicated writer goroutine, which writes them verbatim.
type ServerConn struct {
	nc        net.Conn
	server    *Server
	sendCh    chan []byte
	closed    chan struct{}
	closeOnce sync.Once
	enqueued  atomic.Uint64
	lastRecv  atomic.Int64 // unix nanos of the last inbound message
	rtt       atomic.Int64 // nanos, last push-ping round trip (0 = unknown)
	// Tag is handler-defined metadata (e.g. the attached subscriber name).
	Tag atomic.Value
}

func newServerConn(nc net.Conn, s *Server) *ServerConn {
	c := &ServerConn{
		nc:     nc,
		server: s,
		sendCh: make(chan []byte, s.cfg.sendQueue()),
		closed: make(chan struct{}),
	}
	c.lastRecv.Store(time.Now().UnixNano())
	return c
}

// writeLoop drains the outbound queue onto the socket, applying the write
// deadline per frame, and pushes liveness pings on the heartbeat interval.
// It is the only goroutine that writes to the socket, and the ping is the
// only frame it builds.
func (c *ServerConn) writeLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	var tick <-chan time.Time
	if hb := c.server.cfg.HeartbeatInterval; hb > 0 {
		t := time.NewTicker(hb)
		defer t.Stop()
		tick = t.C
	}
	for {
		var frame []byte
		select {
		case frame = <-c.sendCh:
		case <-tick:
			frame, _ = EncodeNotice(KindPing, &pingBody{T: time.Now().UnixNano()})
		case <-c.closed:
			return
		}
		if wt := c.server.cfg.WriteTimeout; wt > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := c.nc.Write(frame); err != nil {
			c.Close()
			return
		}
	}
}

// Notify queues a server push frame (EncodePushFrame, EncodeNotice) for
// the peer without blocking: if the outbound queue is full the peer is a
// slow subscriber, the connection is closed, and ErrSlowSubscriber is
// returned. The publisher is never exposed to the peer's TCP window. The
// same frame can be queued on any number of connections; the caller must
// not mutate it afterwards.
func (c *ServerConn) Notify(frame []byte) error {
	// A closed connection must fail every send. Without this check the
	// select below picks at random between a queue slot the writer freed
	// before it exited and the closed channel.
	if c.isClosed() {
		return ErrClosed
	}
	select {
	case c.sendCh <- frame:
		c.enqueued.Add(1)
		return nil
	case <-c.closed:
		return ErrClosed
	default:
		c.Close()
		return ErrSlowSubscriber
	}
}

// NotifySync queues a frame like Notify, but blocks until it is queued or
// the connection closes. Resume replays and replication use it: a replay
// can be much longer than the queue, and the receiver is actively draining
// it, so backpressure (bounded by the writer's deadline-guarded progress)
// is the correct policy rather than overflow-disconnect.
func (c *ServerConn) NotifySync(frame []byte) error {
	if c.isClosed() {
		return ErrClosed
	}
	select {
	case c.sendCh <- frame:
		c.enqueued.Add(1)
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

func (c *ServerConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// Close closes the underlying connection and releases the writer.
func (c *ServerConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.nc.Close()
}

// RemoteAddr returns the peer address.
func (c *ServerConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// QueueDepth returns the number of queued outbound messages.
func (c *ServerConn) QueueDepth() int { return len(c.sendCh) }

// QueueCap returns the outbound queue capacity.
func (c *ServerConn) QueueCap() int { return cap(c.sendCh) }

// Enqueued returns the total number of messages queued on this connection.
func (c *ServerConn) Enqueued() uint64 { return c.enqueued.Load() }

// IdleFor returns the time since the last inbound message.
func (c *ServerConn) IdleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.lastRecv.Load())
}

// RTT returns the last heartbeat round-trip time measured on this
// connection (zero until the first pong arrives; requires a server
// heartbeat interval).
func (c *ServerConn) RTT() time.Duration { return time.Duration(c.rtt.Load()) }

// Client is a connection to a Server supporting concurrent calls and
// receiving pushes.
type Client struct {
	nc        net.Conn
	cfg       Config
	writeMu   sync.Mutex
	mu        sync.Mutex
	pending   map[uint64]chan *Message
	nextID    uint64
	closed    bool
	closeCh   chan struct{}
	lastRecv  atomic.Int64  // unix nanos of the last inbound message
	rtt       atomic.Int64  // nanos, last request-ping round trip
	bytesRead atomic.Uint64 // total inbound bytes (frames + headers)
	// peerEpoch is the replication epoch the server announced in its hello
	// echo (0 = none).
	peerEpoch atomic.Uint64
	// OnPush handles server-initiated messages. Set before issuing calls
	// that provoke pushes; safe to leave nil (pushes are dropped).
	OnPush func(m *Message)
}

// Dial connects to a wire server with a zero Config.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, Config{})
}

// DialConfig connects to a wire server with explicit fault-tolerance
// settings. With a heartbeat interval set, the client pings the server on
// that period and closes the connection when inbound silence exceeds the
// idle bound (IdleTimeout, defaulting to 3x the interval).
func DialConfig(addr string, cfg Config) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, cfg: cfg, pending: map[uint64]chan *Message{}, closeCh: make(chan struct{})}
	c.lastRecv.Store(time.Now().UnixNano())
	go c.readLoop()
	if err := c.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	if cfg.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// handshake exchanges protocol versions before the connection carries
// anything else. The timeout follows the idle bound when one is configured
// (chaos tests rely on a blackholed dial failing within it) and otherwise
// defaults to 10s.
func (c *Client) handshake() error {
	timeout := c.cfg.idleBound()
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var resp helloBody
	if err := c.CallContext(ctx, KindHello, &helloBody{Version: c.cfg.protocolVersion()}, &resp); err != nil {
		return err
	}
	if resp.Version != c.cfg.protocolVersion() {
		return versionMismatch(resp.Version, c.cfg.protocolVersion())
	}
	c.peerEpoch.Store(resp.Epoch)
	return nil
}

// PeerEpoch returns the replication epoch the server announced at
// handshake time (0 when the server has none). It is a connect-time
// snapshot, not a live value.
func (c *Client) PeerEpoch() uint64 { return c.peerEpoch.Load() }

func (c *Client) readLoop() {
	idle := c.cfg.idleBound()
	src := &countingReader{r: c.nc, n: &c.bytesRead}
	for {
		if idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		m, err := ReadMessage(src)
		if err != nil {
			c.mu.Lock()
			c.closed = true
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			close(c.closeCh)
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		if m.ID == 0 {
			if m.Kind == KindPing {
				// Echo the server's liveness probe (body carries its
				// timestamp) so it can measure RTT and keep this
				// connection under its idle bound.
				c.write(&Message{ID: 0, Kind: KindPong, Body: m.Body})
				continue
			}
			if c.OnPush != nil {
				c.OnPush(m)
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[m.ID]
		delete(c.pending, m.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// heartbeatLoop pings the server on the configured interval. Liveness is
// judged by inbound silence, not by the ping's own round trip: any inbound
// message (a pong, a push, a response) proves the peer alive, so a server
// briefly busy in a long request handler is not falsely declared dead.
func (c *Client) heartbeatLoop() {
	interval := c.cfg.HeartbeatInterval
	bound := c.cfg.idleBound()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-t.C:
		}
		if time.Now().UnixNano()-c.lastRecv.Load() > int64(bound) {
			c.Close()
			return
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), bound)
			defer cancel()
			start := time.Now()
			if err := c.CallContext(ctx, KindPing, nil, nil); err == nil {
				c.rtt.Store(int64(time.Since(start)))
			}
		}()
	}
}

// RTT returns the last heartbeat round-trip time (zero until the first
// ping completes; requires a heartbeat interval).
func (c *Client) RTT() time.Duration { return time.Duration(c.rtt.Load()) }

// BytesRead returns the total bytes received on this connection, including
// frame headers (the benchmarks' bytes-on-wire measurement).
func (c *Client) BytesRead() uint64 { return c.bytesRead.Load() }

// countingReader counts the bytes flowing through an io.Reader.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.n.Add(uint64(n))
	}
	return n, err
}

// write frames one message, then writes it onto the socket under the write
// lock, applying the configured write deadline.
func (c *Client) write(m *Message) error {
	frame, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if wt := c.cfg.WriteTimeout; wt > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err = c.nc.Write(frame)
	return err
}

// Call sends a request and decodes the response body into out (which may be
// nil to discard it). An answer that carries resources arrives as a binary
// frame and fills only a *ResourcesResponse out value; any other out type
// for it, or a JSON response for a *ResourcesResponse, is an error. It
// blocks until the response arrives or the connection dies.
func (c *Client) Call(kind string, req interface{}, out interface{}) error {
	return c.CallContext(context.Background(), kind, req, out)
}

// CallContext is Call with a deadline/cancellation context. On ctx expiry
// the call returns ctx.Err() and the response, if it ever arrives, is
// discarded. A deadline-expired call is retryable (the peer may be slow or
// dead); a canceled one is not.
func (c *Client) CallContext(ctx context.Context, kind string, req interface{}, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Message, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	err = c.write(&Message{ID: id, Kind: kind, Body: body})
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}
	select {
	case m, ok := <-ch:
		if !ok {
			return ErrClosed
		}
		if m.Error != "" {
			return &RemoteError{Msg: m.Error}
		}
		rr, wantResources := out.(*ResourcesResponse)
		switch {
		case m.Resources != nil && wantResources:
			rr.Resources = m.Resources
		case m.Resources != nil && out != nil:
			return fmt.Errorf("wire: %s answered with resources, which cannot fill a %T", kind, out)
		case wantResources:
			return fmt.Errorf("wire: %s answered without a resources frame", kind)
		case out != nil && len(m.Body) > 0:
			return json.Unmarshal(m.Body, out)
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// Ping round-trips a liveness probe and returns its latency.
func (c *Client) Ping(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	if err := c.CallContext(ctx, KindPing, nil, nil); err != nil {
		return 0, err
	}
	rtt := time.Since(start)
	c.rtt.Store(int64(rtt))
	return rtt, nil
}

// Close closes the client connection.
func (c *Client) Close() error {
	return c.nc.Close()
}

// Done is closed when the connection terminates.
func (c *Client) Done() <-chan struct{} { return c.closeCh }

// Decode is a helper for handlers: unmarshal a request body into v,
// tolerating an empty body.
func Decode(body json.RawMessage, v interface{}) error {
	if len(body) == 0 {
		return nil
	}
	return json.Unmarshal(body, v)
}
