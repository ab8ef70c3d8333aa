package provider

import (
	"bytes"
	"encoding/json"
	"testing"

	"mdv/internal/core"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// recordSeeds are changelog record payloads of every kind, each at most
// 256 bytes: binary pub_group records and the JSON kinds, including the
// legacy JSON publish records parseRecord normalizes.
func recordSeeds(t testing.TB) [][]byte {
	small := &core.Changeset{
		Upserts: []core.Upsert{{Resource: &rdf.Resource{URIRef: "b1.rdf#cp", Class: "CycleProvider",
			Props: []rdf.Property{{Name: "serverPort", Value: rdf.Lit("80")}}}, SubIDs: []int64{1}}},
		Removals:      []core.Removal{{URIRef: "b2.rdf#cp", SubID: 2}},
		MemberCredits: map[string][]int64{"lmr-a": {1}, "lmr-b": nil},
	}
	var seeds [][]byte
	for _, g := range []struct {
		members []string
		cs      *core.Changeset
	}{
		{nil, &core.Changeset{}},
		{[]string{"lmr"}, &core.Changeset{ForcedDeletes: []string{"b3.rdf#cp"}}},
		{[]string{"lmr-a", "lmr-b"}, small},
	} {
		rec, _ := appendPubGroupRecord(g.members, g.cs)
		seeds = append(seeds, rec)
	}
	for _, rec := range []*logRecord{
		{Kind: recRegister, Docs: []wire.Doc{{URI: "b1.rdf", XML: "<rdf:RDF></rdf:RDF>"}}},
		{Kind: recDelete, URI: "b1.rdf"},
		{Kind: recSubscribe, Subscriber: "lmr", Rule: durRule},
		{Kind: recUnsubscribe, SubID: 3},
		{Kind: recNamedRule, Name: "r", Rule: durRule},
		{Kind: recAck, Subscriber: "lmr", AckSeq: 9},
		{Kind: recWatermark, Watermark: 1033, Lost: [][2]uint64{{5, 1028}}},
		{Kind: recEpoch, Epoch: 2},
		{Kind: recPub, Subscriber: "lmr", Changeset: &core.Changeset{Removals: small.Removals}},
		{Kind: recPubGroup, Subscribers: []string{"lmr-a", "lmr-b"},
			Changeset: &core.Changeset{Removals: small.Removals, MemberCredits: small.MemberCredits}},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, payload)
	}
	for _, s := range seeds {
		if len(s) > 256 {
			t.Fatalf("seed of %d bytes (%.40q...), want at most 256", len(s), s)
		}
	}
	return seeds
}

// FuzzParseRecord: parseRecord reads bytes a replica receives over the
// replication stream. It must not panic, a publish record of either format
// comes out as a pub_group with its changeset encoded, and an accepted
// binary pub_group whose changeset decodes re-encodes to the record's
// bytes.
func FuzzParseRecord(f *testing.F) {
	for _, s := range recordSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := parseRecord(payload)
		if err != nil {
			return
		}
		if rec.Kind == recPub || (rec.Kind == recPubGroup) != (rec.enc != nil) {
			t.Fatalf("parsed record kind %q with %d changeset bytes", rec.Kind, len(rec.enc))
		}
		if payload[0] != pubGroupTag {
			return
		}
		cs, _, err := core.DecodeChangeset(rec.enc)
		if err != nil {
			return
		}
		if again, _ := appendPubGroupRecord(rec.Subscribers, cs); !bytes.Equal(again, payload) {
			t.Fatalf("record %x re-encodes to %x", payload, again)
		}
	})
}

// TestParseRecordSeeds: every fuzz seed parses, the legacy publish
// records into the binary record's shape with the changeset they carried.
func TestParseRecordSeeds(t *testing.T) {
	for _, s := range recordSeeds(t) {
		rec, err := parseRecord(s)
		if err != nil {
			t.Fatalf("parseRecord(%.60q): %v", s, err)
		}
		if rec.Kind != recPubGroup {
			continue
		}
		var want []byte
		if s[0] == pubGroupTag {
			want = s[len(s)-len(rec.enc):]
		} else {
			var legacy logRecord
			if err := json.Unmarshal(s, &legacy); err != nil {
				t.Fatal(err)
			}
			want = core.AppendChangeset(nil, legacy.Changeset)
			if legacy.Kind == recPub && (len(rec.Subscribers) != 1 || rec.Subscribers[0] != legacy.Subscriber) {
				t.Errorf("legacy pub for %q parsed with members %q", legacy.Subscriber, rec.Subscribers)
			}
		}
		if !bytes.Equal(rec.enc, want) {
			t.Errorf("record %.60q: changeset bytes %x, want %x", s, rec.enc, want)
		}
	}
}

// TestParseRecordRejectsMalformedPubGroup: a binary pub_group is accepted
// only in the form appendPubGroupRecord writes, with its changeset filling
// the rest of the record.
func TestParseRecordRejectsMalformedPubGroup(t *testing.T) {
	empty := core.AppendChangeset(nil, &core.Changeset{})
	for name, payload := range map[string][]byte{
		"non-minimal member count":  append([]byte{pubGroupTag, 0x80, 0x00}, empty...),
		"non-minimal member length": append([]byte{pubGroupTag, 1, 0x81, 0x00, 'x'}, empty...),
		"member name cut short":     {pubGroupTag, 1, 3, 'l', 'm'},
		"no changeset":              {pubGroupTag, 0},
		"byte after the changeset":  append(append([]byte{pubGroupTag, 0}, empty...), 0),
		"changeset cut short":       append([]byte{pubGroupTag, 0}, empty[:len(empty)-1]...),
	} {
		if rec, err := parseRecord(payload); err == nil {
			t.Errorf("%s: parseRecord(%x) accepted members %q", name, payload, rec.Subscribers)
		}
	}
	if _, err := parseRecord(append([]byte{pubGroupTag, 0}, empty...)); err != nil {
		t.Errorf("canonical empty record: %v", err)
	}
}
