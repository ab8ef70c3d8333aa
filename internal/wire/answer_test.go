package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// answerResources is a query answer of n resources shaped like the
// benchmark's: a host with literal, set-valued and reference properties.
func answerResources(n int) []*rdf.Resource {
	rs := make([]*rdf.Resource, n)
	for i := range rs {
		rs[i] = &rdf.Resource{URIRef: fmt.Sprintf("doc%d.rdf#host", i), Class: "CycleProvider", Props: []rdf.Property{
			{Name: "serverHost", Value: rdf.Lit(fmt.Sprintf("host%02d.uni-passau.de", i))},
			{Name: "serverPort", Value: rdf.Lit(fmt.Sprint(5000 + i))},
			{Name: "keyword", Value: rdf.Lit("join")},
			{Name: "keyword", Value: rdf.Lit("select")},
			{Name: "serverInformation", Value: rdf.Ref(fmt.Sprintf("doc%d.rdf#info", i))},
		}}
	}
	return rs
}

func TestResourcesFrameRoundTrip(t *testing.T) {
	for _, rs := range [][]*rdf.Resource{nil, answerResources(1), answerResources(10)} {
		frame, err := EncodeResourcesFrame(42, rs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%d resources: %v", len(rs), err)
		}
		if m.ID != 42 || m.Kind != "" || m.Body != nil || m.Error != "" {
			t.Errorf("%d resources: read back as id %d kind %q body %q error %q", len(rs), m.ID, m.Kind, m.Body, m.Error)
		}
		// An empty answer decodes as an empty, non-nil list: a non-nil
		// Resources is what marks a message as a resources answer.
		if m.Resources == nil || len(m.Resources) != len(rs) || (len(rs) > 0 && !reflect.DeepEqual(m.Resources, rs)) {
			t.Errorf("%d resources: decoded %#v", len(rs), m.Resources)
		}
	}
}

func TestReadMessageRejectsMalformedResourcesFrames(t *testing.T) {
	valid, _ := EncodeResourcesFrame(7, answerResources(2))
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(out, payload...)
	}
	cases := map[string][]byte{
		"id 0":              frame([]byte{tagResources, 0x00, 0x00}),
		"no id":             frame([]byte{tagResources}),
		"non-minimal id":    frame([]byte{tagResources, 0x87, 0x00, 0x00}),
		"no resources":      frame([]byte{tagResources, 0x07}),
		"truncated":         frame(valid[4 : len(valid)-1]),
		"trailing bytes":    frame(append(append([]byte(nil), valid[4:]...), 0x00)),
		"value kind 2":      frame([]byte{tagResources, 0x07, 0x01, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00}),
		"count beyond data": frame([]byte{tagResources, 0x07, 0x09, 0x00, 0x00, 0x00}),
	}
	for name, f := range cases {
		if m, err := ReadMessage(bytes.NewReader(f)); err == nil {
			t.Errorf("%s: read %+v, want an error", name, m)
		}
	}
}

// answerServer serves a resources answer ("resources") and a JSON answer
// ("json"), each carrying one literal of the requested size.
func answerServer(t *testing.T) *Client {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(conn *ServerConn, kind string, body json.RawMessage) (interface{}, error) {
		var size int
		if err := Decode(body, &size); err != nil {
			return nil, err
		}
		switch kind {
		case "resources":
			return &ResourcesResponse{Resources: []*rdf.Resource{{URIRef: "d#x", Class: "C", Props: []rdf.Property{
				{Name: "p", Value: rdf.Lit(strings.Repeat("x", size))},
			}}}}, nil
		case "json":
			return &echoReq{Text: strings.Repeat("x", size)}, nil
		}
		return nil, fmt.Errorf("unknown kind %q", kind)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOversizedAnswerKeepsConnection: an answer larger than MaxMessageSize
// reaches the caller as a RemoteError naming its size, and the connection
// keeps serving calls. Before responses were sized on the handler
// goroutine, the writer refused the frame and closed the connection, and
// the caller saw a retryable ErrClosed on this and every later call.
func TestOversizedAnswerKeepsConnection(t *testing.T) {
	c := answerServer(t)
	for _, kind := range []string{"resources", "json"} {
		var out interface{} = new(echoReq)
		if kind == "resources" {
			out = new(ResourcesResponse)
		}
		err := c.Call(kind, MaxMessageSize, out)
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "wire: response of") || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("%s answer over the limit: err = %v (%T), want a RemoteError that it exceeds the limit", kind, err, err)
		}
		if IsRetryable(err) {
			t.Errorf("%s answer over the limit classified retryable", kind)
		}
		if err := c.Call(kind, 3, out); err != nil {
			t.Fatalf("%s call after the oversized answer: %v", kind, err)
		}
	}
	var rr ResourcesResponse
	if err := c.Call("resources", 5, &rr); err != nil || len(rr.Resources) != 1 || rr.Resources[0].Props[0].Value.Literal != "xxxxx" {
		t.Fatalf("resources call on the same connection: %v, %+v", err, rr.Resources)
	}
}

// TestCallChecksAnswerType: a resources answer fills only a
// *ResourcesResponse, and a *ResourcesResponse is filled only by one.
func TestCallChecksAnswerType(t *testing.T) {
	c := answerServer(t)
	if err := c.Call("resources", 1, new(echoReq)); err == nil {
		t.Error("resources answer decoded into an *echoReq")
	}
	if err := c.Call("json", 1, new(ResourcesResponse)); err == nil {
		t.Error("JSON answer decoded into a *ResourcesResponse")
	}
	if err := c.Call("resources", 1, nil); err != nil {
		t.Errorf("resources answer discarded with a nil out: %v", err)
	}
}

// BenchmarkResourcesAnswer times a query answer of 1 and 10 resources
// through each codec: "json" is the protocol v4 answer (the resources
// marshalled into a JSON envelope, read back with ReadMessage plus an
// unmarshal of the body), "binary" the v5 frame (EncodeResourcesFrame;
// ReadMessage decodes it).
func BenchmarkResourcesAnswer(b *testing.B) {
	type jsonAnswer struct {
		Resources []*rdf.Resource `json:"resources"`
	}
	for _, n := range []int{1, 10} {
		rs := answerResources(n)
		jsonEncode := func() ([]byte, error) {
			body, err := json.Marshal(&jsonAnswer{Resources: rs})
			if err != nil {
				return nil, err
			}
			return EncodeMessage(&Message{ID: 1, Body: body})
		}
		binaryEncode := func() ([]byte, error) { return EncodeResourcesFrame(1, rs) }
		jsonFrame, err := jsonEncode()
		if err != nil {
			b.Fatal(err)
		}
		binaryFrame, err := binaryEncode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("json/encode/resources=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(jsonFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsonEncode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/encode/resources=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(binaryFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := binaryEncode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/decode/resources=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(jsonFrame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := ReadMessage(bytes.NewReader(jsonFrame))
				if err == nil {
					err = json.Unmarshal(m.Body, new(jsonAnswer))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/decode/resources=%d", n), func(b *testing.B) {
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
