package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdv/internal/core"
	"mdv/internal/rdf"
)

// fanoutChangeset is the shape of a fan-out push: one matching resource
// with a 64 KiB strong-closure payload, shared by a four-member group.
func fanoutChangeset(version int) *core.Changeset {
	host := &rdf.Resource{URIRef: fmt.Sprintf("doc%d.rdf#host", version), Class: "CycleProvider", Props: []rdf.Property{
		{Name: "serverHost", Value: rdf.Lit("pirates.uni-passau.de")},
		{Name: "serverPort", Value: rdf.Lit(fmt.Sprint(5000 + version))},
		{Name: "serverInformation", Value: rdf.Ref(fmt.Sprintf("doc%d.rdf#info", version))},
		{Name: "blob", Value: rdf.Ref("blob.rdf#data")},
	}}
	info := &rdf.Resource{URIRef: fmt.Sprintf("doc%d.rdf#info", version), Class: "ServerInformation", Props: []rdf.Property{
		{Name: "memory", Value: rdf.Lit("92")},
		{Name: "cpu", Value: rdf.Lit("600")},
	}}
	blob := &rdf.Resource{URIRef: "blob.rdf#data", Class: "Payload", Props: []rdf.Property{
		{Name: "data", Value: rdf.Lit(strings.Repeat("x", 64<<10))},
	}}
	return &core.Changeset{
		Upserts: []core.Upsert{{Resource: host, SubIDs: []int64{1, 5, 9, 13}, Closure: []*rdf.Resource{info, blob}}},
		MemberCredits: map[string][]int64{
			"lmr-0": {1}, "lmr-2": {5}, "lmr-4": {9}, "lmr-6": {13},
		},
	}
}

func encodedPushes(n int) ([]EncodedPush, []ChangesetPush) {
	enc := make([]EncodedPush, n)
	want := make([]ChangesetPush, n)
	for i := range enc {
		cs := fanoutChangeset(i)
		enc[i] = EncodedPush{Seq: uint64(100 + i), Reset: i == 1, PubUnixNano: int64(i) * 1e9, Changeset: core.AppendChangeset(nil, cs)}
		want[i] = ChangesetPush{Seq: enc[i].Seq, Reset: enc[i].Reset, PubUnixNano: enc[i].PubUnixNano, Changeset: cs}
	}
	return enc, want
}

func TestPushFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3} {
		enc, want := encodedPushes(n)
		frame, err := EncodePushFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%d pushes: %v", n, err)
		}
		wantKind := KindChangeset
		if n > 1 {
			wantKind = KindChangesetBatch
		}
		if m.Kind != wantKind || m.ID != 0 || m.Body != nil {
			t.Errorf("%d pushes: message %q id %d body %d bytes, want %q id 0 and no body", n, m.Kind, m.ID, len(m.Body), wantKind)
		}
		if !reflect.DeepEqual(m.Pushes, want) {
			t.Errorf("%d pushes: decoded pushes differ from the encoded ones", n)
		}
	}
	// A negative publish time survives (varint, not uvarint).
	frame, _ := EncodePushFrame([]EncodedPush{{Seq: 1, PubUnixNano: -5, Changeset: core.AppendChangeset(nil, &core.Changeset{})}})
	if m, err := ReadMessage(bytes.NewReader(frame)); err != nil || m.Pushes[0].PubUnixNano != -5 {
		t.Errorf("negative publish time: %v, %+v", err, m)
	}
}

// TestJSONPushEnvelopeStillReads: tools that frame a push as a JSON
// envelope (the benchmark's per-layer codec timing does) keep working.
func TestJSONPushEnvelopeStillReads(t *testing.T) {
	cs := fanoutChangeset(0)
	body, err := json.Marshal(&ChangesetPush{Seq: 7, Changeset: cs})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeMessage(&Message{Kind: KindChangeset, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var push ChangesetPush
	if err := json.Unmarshal(m.Body, &push); err != nil {
		t.Fatal(err)
	}
	if m.Pushes != nil || push.Seq != 7 || !reflect.DeepEqual(push.Changeset, cs) {
		t.Errorf("JSON envelope push read back as %+v (binary pushes %v)", push, m.Pushes)
	}
}

func TestReadMessageRejectsMalformedPushFrames(t *testing.T) {
	enc, _ := encodedPushes(2)
	single, _ := EncodePushFrame(enc[:1])
	batch, _ := EncodePushFrame(enc)
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(out, payload...)
	}
	cases := map[string][]byte{
		"single tag with two pushes": frame(append([]byte{tagPush}, batch[5:]...)),
		"batch tag with one push":    frame(append([]byte{tagPushBatch}, single[5:]...)),
		"empty batch":                frame([]byte{tagPushBatch}),
		"reset byte 2":               frame([]byte{tagPush, 0x01, 0x02, 0x00, 0x05, 0, 0, 0, 0, 0}),
		"truncated changeset":        frame(single[4 : len(single)-1]),
	}
	for name, f := range cases {
		if m, err := ReadMessage(bytes.NewReader(f)); err == nil {
			t.Errorf("%s: read %+v, want an error", name, m)
		}
	}
}

// TestNotifyOnClosedConnAlwaysFails: once a connection is closed, every
// push fails with ErrClosed, even when its queue has room. The writer
// drains the queue after an overflow; a send on the dead connection must
// not be accepted by the random pick between a free slot and the closed
// signal.
func TestNotifyOnClosedConnAlwaysFails(t *testing.T) {
	attached := make(chan *ServerConn, 1)
	srv, err := NewServerConfig("127.0.0.1:0", func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
		attached <- conn
		return nil, nil
	}, Config{SendQueue: 4, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteMessage(nc, &Message{ID: 1, Kind: "attach"}); err != nil {
		t.Fatal(err)
	}
	conn := <-attached
	// Framed once outside the loop, as a fan-out push is.
	flood, err := EncodeNotice("flood", make([]byte, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("queue never overflowed")
		}
		if err := conn.Notify(flood); errors.Is(err, ErrSlowSubscriber) {
			break
		} else if err != nil {
			t.Fatalf("notify before overflow: %v", err)
		}
	}
	// Stand in for the writer draining the queue before it noticed the
	// close, leaving every slot free.
	for drained := false; !drained; {
		select {
		case <-conn.sendCh:
		default:
			drained = true
		}
	}
	frame, err := EncodeNotice("after", "x")
	if err != nil {
		t.Fatal(err)
	}
	sends := map[string]func([]byte) error{
		"Notify":     conn.Notify,
		"NotifySync": conn.NotifySync,
	}
	for name, send := range sends {
		for i := 0; i < 100; i++ {
			if err := send(frame); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s %d on a closed connection: err = %v, want ErrClosed", name, i, err)
			}
		}
	}
}

// TestReadMessageAllocatesAsBytesArrive: a length header alone does not
// make ReadMessage allocate the length it claims; a frame larger than the
// first buffer still reads whole, and one cut short reports it.
func TestReadMessageAllocatesAsBytesArrive(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader([]byte{0x00, 0xff, 0xff, 0xff}))
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Errorf("bare header: err = %v, want EOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("bare header claiming 16 MiB: allocated %d bytes, want < 1 MiB", d)
	}

	big := &Message{ID: 7, Kind: "k", Body: json.RawMessage(`"` + strings.Repeat("x", 3*readChunk) + `"`)}
	frame, err := EncodeMessage(big)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != big.ID || !bytes.Equal(m.Body, big.Body) {
		t.Errorf("frame of %d bytes read back as ID %d with a %d-byte body", len(frame), m.ID, len(m.Body))
	}
	if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-1])); err != io.ErrUnexpectedEOF {
		t.Errorf("frame cut short: err = %v, want ErrUnexpectedEOF", err)
	}
}

func FuzzReadMessage(f *testing.F) {
	for _, m := range []*Message{
		{ID: 1, Kind: KindHello, Body: json.RawMessage(`{"version":4}`)},
		{ID: 0, Kind: KindPing, Body: json.RawMessage(`{"t":12345}`)},
		{ID: 9, Error: "provider: unknown request kind"},
		{ID: 3},
	} {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, cs := range []*core.Changeset{
		{},
		{MemberCredits: map[string][]int64{}},
		{Removals: []core.Removal{{URIRef: "d#x", SubID: 1}, {URIRef: "d#x", SubID: -1}}},
		{ForcedDeletes: []string{"\xff\xfe"}, ClosureUpserts: []*rdf.Resource{{URIRef: "d#y", Props: []rdf.Property{
			{Name: "p", Value: rdf.Lit("d#x")}, {Name: "p", Value: rdf.Ref("d#x")},
		}}}},
	} {
		enc := core.AppendChangeset(nil, cs)
		for _, n := range []int{1, 2} {
			pushes := make([]EncodedPush, n)
			for i := range pushes {
				pushes[i] = EncodedPush{Seq: uint64(i + 1), Reset: i == 0, PubUnixNano: -int64(i), Changeset: enc}
			}
			frame, err := EncodePushFrame(pushes)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	// Resources answer frames: empty, set-valued and reference properties,
	// and the malformed forms of a truncated frame, trailing bytes and id 0.
	answer := func(id uint64, rs []*rdf.Resource) []byte {
		frame, err := EncodeResourcesFrame(id, rs)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	reframe := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	set := []*rdf.Resource{{URIRef: "d#h", Class: "C", Props: []rdf.Property{
		{Name: "k", Value: rdf.Lit("a")}, {Name: "k", Value: rdf.Lit("b")}, {Name: "r", Value: rdf.Ref("d#i")},
	}}, {URIRef: "d#i", Class: "I"}}
	full := answer(300, set)
	for _, frame := range [][]byte{
		answer(1, nil),
		full,
		reframe(full[4 : len(full)-1]),
		reframe(append(append([]byte(nil), full[4:]...), 0x00)),
		answer(0, set),
	} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			return
		}
		if m.Resources != nil {
			// A resources answer is accepted only in the form
			// EncodeResourcesFrame writes.
			re, err := EncodeResourcesFrame(m.ID, m.Resources)
			if err != nil {
				t.Fatal(err)
			}
			if n := 4 + int(binary.BigEndian.Uint32(frame)); !bytes.Equal(re, frame[:n]) {
				t.Fatalf("accepted resources frame does not re-encode to itself:\n in %x\nout %x", frame[:n], re)
			}
			return
		}
		if m.Pushes == nil {
			return
		}
		// A binary push frame is accepted only in the form EncodePushFrame
		// writes.
		pushes := make([]EncodedPush, len(m.Pushes))
		for i, p := range m.Pushes {
			pushes[i] = EncodedPush{Seq: p.Seq, Reset: p.Reset, PubUnixNano: p.PubUnixNano, Changeset: core.AppendChangeset(nil, p.Changeset)}
		}
		re, err := EncodePushFrame(pushes)
		if err != nil {
			t.Fatal(err)
		}
		if n := 4 + int(binary.BigEndian.Uint32(frame)); !bytes.Equal(re, frame[:n]) {
			t.Fatalf("accepted push frame does not re-encode to itself:\n in %x\nout %x", frame[:n], re)
		}
	})
}

// BenchmarkChangesetCodec times a fan-out push (one resource with a 64 KiB
// closure, shared by four group members) through each codec: "json" is
// the protocol v3 push (the changeset marshalled into a JSON envelope and
// read back with ReadMessage plus an unmarshal of the body), "binary" the
// v4 frame (core.AppendChangeset plus EncodePushFrame; ReadMessage decodes
// it). batch=16 frames sixteen such pushes at once, as a coalesced resume
// replay does.
func BenchmarkChangesetCodec(b *testing.B) {
	type jsonBatch struct {
		Pushes []ChangesetPush `json:"pushes"`
	}
	for _, n := range []int{1, 16} {
		enc, pushes := encodedPushes(n)
		var jsonBody interface{} = &jsonBatch{Pushes: pushes}
		kind := KindChangesetBatch
		if n == 1 {
			jsonBody, kind = &pushes[0], KindChangeset
		}
		jsonEncode := func() ([]byte, error) {
			payload, err := json.Marshal(jsonBody)
			if err != nil {
				return nil, err
			}
			return EncodeMessage(&Message{Kind: kind, Body: payload})
		}
		binaryEncode := func() ([]byte, error) {
			for i := range enc {
				enc[i].Changeset = core.AppendChangeset(nil, pushes[i].Changeset)
			}
			return EncodePushFrame(enc)
		}
		jsonFrame, err := jsonEncode()
		if err != nil {
			b.Fatal(err)
		}
		binaryFrame, err := binaryEncode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("json/encode/batch=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(jsonFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsonEncode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/encode/batch=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(binaryFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := binaryEncode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/decode/batch=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(jsonFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := ReadMessage(bytes.NewReader(jsonFrame))
				if err == nil && n == 1 {
					err = json.Unmarshal(m.Body, new(ChangesetPush))
				} else if err == nil {
					err = json.Unmarshal(m.Body, new(jsonBatch))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/decode/batch=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(binaryFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMessage(bytes.NewReader(binaryFrame)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
