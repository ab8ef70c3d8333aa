package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// codecCases are the hand-picked changesets of the codec tests, in the
// canonical form DecodeChangeset returns: every empty list nil, except
// MemberCredits, whose nil and empty forms differ in meaning.
func codecCases() map[string]*Changeset {
	host := &rdf.Resource{URIRef: "doc.rdf#host", Class: "CycleProvider", Props: []rdf.Property{
		{Name: "serverHost", Value: rdf.Lit("pirates.uni-passau.de")},
		{Name: "serverPort", Value: rdf.Lit("5874")},
		{Name: "serverInformation", Value: rdf.Ref("doc.rdf#info")},
	}}
	blob := &rdf.Resource{URIRef: "blob.rdf#data", Class: "Payload", Props: []rdf.Property{
		{Name: "data", Value: rdf.Lit(strings.Repeat("x", 64<<10))},
	}}
	return map[string]*Changeset{
		"empty":                {},
		"empty member credits": {MemberCredits: map[string][]int64{}},
		"member credits": {
			Upserts:       []Upsert{{Resource: host, SubIDs: []int64{1, 2, 9}}},
			MemberCredits: map[string][]int64{"lmr-b": {9}, "lmr-a": {1, 2}, "lmr-c": nil},
		},
		"removals with equal uris": {Removals: []Removal{
			{URIRef: "doc.rdf#host", SubID: 3}, {URIRef: "doc.rdf#host", SubID: 3}, {URIRef: "doc.rdf#host", SubID: -4},
		}},
		"literal and reference with the same text": {ClosureUpserts: []*rdf.Resource{{
			URIRef: "doc.rdf#x", Class: "C", Props: []rdf.Property{
				{Name: "p", Value: rdf.Lit("doc.rdf#host")},
				{Name: "p", Value: rdf.Ref("doc.rdf#host")},
				{Name: "q", Value: rdf.Lit("")},
				{Name: "q", Value: rdf.Ref("")},
			},
		}}},
		"64 KiB closure": {
			Upserts:        []Upsert{{Resource: host, SubIDs: []int64{5}, Closure: []*rdf.Resource{blob}}},
			ClosureUpserts: []*rdf.Resource{blob},
		},
		"invalid utf-8": {
			Upserts: []Upsert{{Resource: &rdf.Resource{URIRef: "doc.rdf#\xff", Class: "C\xc3", Props: []rdf.Property{
				{Name: "n\xfe", Value: rdf.Lit("\xed\xa0\x80 lone surrogate, \x00 nul")},
			}}, SubIDs: []int64{1}}},
			ForcedDeletes: []string{"\x80\x81"},
		},
		"extreme ids": {
			Upserts:       []Upsert{{Resource: &rdf.Resource{}, SubIDs: []int64{math.MinInt64, -1, 0, math.MaxInt64}}},
			Removals:      []Removal{{SubID: math.MinInt64}, {SubID: math.MaxInt64}},
			MemberCredits: map[string][]int64{"": {math.MinInt64}},
		},
		"every section": {
			Upserts:        []Upsert{{Resource: host, SubIDs: []int64{1}, Closure: []*rdf.Resource{host, blob}}},
			Removals:       []Removal{{URIRef: "doc.rdf#gone", SubID: 2}},
			ClosureUpserts: []*rdf.Resource{host},
			ForcedDeletes:  []string{"doc.rdf#a", "doc.rdf#b"},
			MemberCredits:  map[string][]int64{"lmr": {1, 2}},
		},
	}
}

// randChangeset draws a changeset in canonical form.
func randChangeset(rng *rand.Rand) *Changeset {
	strs := []string{"", "doc.rdf#host", "doc.rdf#info", "\xff\xfe", "日本語", "a\x00b", strings.Repeat("y", 300)}
	str := func() string {
		if rng.Intn(8) == 0 {
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return string(b)
		}
		return strs[rng.Intn(len(strs))]
	}
	ids := func() []int64 {
		var out []int64
		for i := rng.Intn(4); i > 0; i-- {
			out = append(out, rng.Int63()-rng.Int63())
		}
		return out
	}
	res := func() *rdf.Resource {
		r := &rdf.Resource{URIRef: str(), Class: str()}
		for i := rng.Intn(4); i > 0; i-- {
			v := rdf.Lit(str())
			if rng.Intn(2) == 0 {
				v = rdf.Ref(str())
			}
			r.Props = append(r.Props, rdf.Property{Name: str(), Value: v})
		}
		return r
	}
	resList := func() []*rdf.Resource {
		var out []*rdf.Resource
		for i := rng.Intn(3); i > 0; i-- {
			out = append(out, res())
		}
		return out
	}
	cs := &Changeset{}
	for i := rng.Intn(4); i > 0; i-- {
		cs.Upserts = append(cs.Upserts, Upsert{Resource: res(), SubIDs: ids(), Closure: resList()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		cs.Removals = append(cs.Removals, Removal{URIRef: str(), SubID: rng.Int63n(100) - 50})
	}
	cs.ClosureUpserts = resList()
	for i := rng.Intn(3); i > 0; i-- {
		cs.ForcedDeletes = append(cs.ForcedDeletes, str())
	}
	switch rng.Intn(3) {
	case 1:
		cs.MemberCredits = map[string][]int64{}
	case 2:
		cs.MemberCredits = map[string][]int64{}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			cs.MemberCredits[str()] = ids()
		}
	}
	return cs
}

func checkRoundTrip(t *testing.T, name string, cs *Changeset) {
	t.Helper()
	enc := AppendChangeset(nil, cs)
	// Appending after existing bytes writes the same encoding, and the
	// decoder stops at its end, leaving what follows to the caller.
	framed := AppendChangeset([]byte("head"), cs)
	if !bytes.Equal(framed[4:], enc) {
		t.Fatalf("%s: encoding depends on the bytes before it", name)
	}
	got, n, err := DecodeChangeset(append(append([]byte(nil), enc...), "tail"...))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if n != len(enc) {
		t.Fatalf("%s: decode consumed %d of %d bytes", name, n, len(enc))
	}
	if !reflect.DeepEqual(got, cs) {
		t.Fatalf("%s: round trip changed the changeset:\n got %+v\nwant %+v", name, got, cs)
	}
	if re := AppendChangeset(nil, got); !bytes.Equal(re, enc) {
		t.Fatalf("%s: re-encoding differs", name)
	}
}

func TestChangesetCodecRoundTrip(t *testing.T) {
	for name, cs := range codecCases() {
		checkRoundTrip(t, name, cs)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkRoundTrip(t, fmt.Sprintf("random changeset %d", i), randChangeset(rng))
	}
}

// TestChangesetCodecKeepsBytes: strings are bytes. encoding/json replaces
// invalid UTF-8 with U+FFFD, so the JSON wire format altered such values;
// the binary one carries them exactly.
func TestChangesetCodecKeepsBytes(t *testing.T) {
	cs := codecCases()["invalid utf-8"]
	js, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON Changeset
	if err := json.Unmarshal(js, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.ForcedDeletes[0] == cs.ForcedDeletes[0] {
		t.Fatal("encoding/json kept invalid UTF-8; this test no longer shows the difference")
	}
	got, _, err := DecodeChangeset(AppendChangeset(nil, cs))
	if err != nil {
		t.Fatal(err)
	}
	if got.ForcedDeletes[0] != cs.ForcedDeletes[0] || got.Upserts[0].Resource.URIRef != cs.Upserts[0].Resource.URIRef {
		t.Fatalf("binary codec changed invalid UTF-8: %q", got.ForcedDeletes[0])
	}
}

// TestDecodeChangesetRejects lists inputs that are not canonical encodings.
func TestDecodeChangesetRejects(t *testing.T) {
	valid := AppendChangeset(nil, codecCases()["member credits"])
	cases := map[string][]byte{
		"empty input":          {},
		"truncated body":       valid[:len(valid)-1],
		"non-minimal length":   {0x85, 0x00, 0, 0, 0, 0, 0},
		"count beyond input":   {0x03, 0x00, 0xff, 0x7f},
		"huge upsert count":    {0x0a, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"trailing body bytes":  {0x06, 0x00, 0, 0, 0, 0, 0},
		"members out of order": {0x0b, 0x03, 0x01, 'b', 0x00, 0x01, 'a', 0x00, 0, 0, 0, 0},
		"duplicate members":    {0x0b, 0x03, 0x01, 'a', 0x00, 0x01, 'a', 0x00, 0, 0, 0, 0},
		// One upsert of a resource with one property whose kind byte is 2.
		"value kind 2": {0x0d, 0x00, 0x01, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
	}
	for name, b := range cases {
		if cs, _, err := DecodeChangeset(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, cs)
		}
	}
}

// TestResourcesCodec: a resources list round-trips on its own, in the
// encoding a changeset's closure uses, and DecodeResources accepts only a
// canonical list that fills its input.
func TestResourcesCodec(t *testing.T) {
	rs := []*rdf.Resource{
		{URIRef: "doc.rdf#host", Class: "CycleProvider", Props: []rdf.Property{
			{Name: "port", Value: rdf.Lit("5874")}, {Name: "port", Value: rdf.Lit("5875")},
			{Name: "info", Value: rdf.Ref("doc.rdf#info")},
		}},
		{URIRef: "doc.rdf#info", Class: "ServerInformation"},
	}
	enc := AppendResources(nil, rs)
	got, err := DecodeResources(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("decoded %+v, want %+v", got, rs)
	}
	cs := AppendChangeset(nil, &Changeset{ClosureUpserts: rs})
	if !bytes.Contains(cs, enc) {
		t.Error("a changeset's closure list is not encoded as AppendResources encodes it")
	}
	if got, err := DecodeResources([]byte{0x00}); err != nil || got != nil {
		t.Errorf("empty list: %v, %v; want nil, nil", got, err)
	}
	cases := map[string][]byte{
		"empty input":        {},
		"truncated":          enc[:len(enc)-1],
		"trailing bytes":     append(append([]byte(nil), enc...), 0x00),
		"non-minimal count":  {0x80, 0x00},
		"count beyond input": {0x05, 0x00, 0x00, 0x00},
		"value kind 2":       {0x01, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00},
		"non-minimal strlen": {0x01, 0x80, 0x00, 0x00, 0x00},
	}
	for name, b := range cases {
		if rs, err := DecodeResources(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, rs)
		}
	}
}

// decodeAllocBound is how many bytes decoding may allocate per input byte.
// A count is accepted only if the bytes left could hold that many
// elements, so allocation is proportional to the input; the factor covers
// the smallest elements, e.g. a 3-byte empty property that becomes a
// 56-byte rdf.Property.
const decodeAllocBound = 64

func FuzzDecodeChangeset(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new interesting input,
	// at a cost quadratic in its length, and one derived from a kilobyte
	// seed stalls it for a minute.
	seed := func(cs *Changeset) {
		if enc := AppendChangeset(nil, cs); len(enc) <= 256 {
			f.Add(enc)
		}
	}
	for _, cs := range codecCases() {
		seed(cs)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 32; i++ {
		seed(randChangeset(rng))
	}
	// allocs measures what one decode allocates. Other goroutines of the
	// fuzzing process can allocate during the call, so a reading above the
	// bound is retaken, and the smallest reading is the one judged: the
	// decoder's own allocation is the same on every run.
	allocs := func(b []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeChangeset(b)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		bound := uint64(decodeAllocBound*len(b) + 1<<10)
		if a := allocs(b); a > bound {
			for i := 0; i < 3 && a > bound; i++ {
				a = min(a, allocs(b))
			}
			if a > bound {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(b), a)
			}
		}
		cs, n, err := DecodeChangeset(b)
		if err != nil {
			return
		}
		if re := AppendChangeset(nil, cs); !bytes.Equal(re, b[:n]) {
			t.Fatalf("accepted input does not re-encode to itself:\n in %x\nout %x", b[:n], re)
		}
	})
}
