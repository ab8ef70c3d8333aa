package core

import (
	"bytes"
	"maps"
	"testing"

	"mdv/internal/rdf"
)

// TestTrigPropsDerivedState: the triggering-property counts follow subscribe
// and unsubscribe, equal a rebuild from the FilterRules tables at every
// step, survive a snapshot round trip, and are empty once every rule is gone.
func TestTrigPropsDerivedState(t *testing.T) {
	e := newTestEngine(t)
	var ids []int64
	for _, rule := range []string{
		`search CycleProvider c register c`,
		`search CycleProvider c register c where c.serverPort = 5874`,
		`search CycleProvider c register c where c.serverPort < 1024`,
		`search CycleProvider c register c where c.serverHost contains 'passau'`,
		`search CycleProvider c register c where c = 'doc.rdf#host'`,
		`search CycleProvider c register c where c.serverInformation.memory > 64`,
	} {
		id, _, err := e.Subscribe("lmr1", rule)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rebuilt := func() map[classProp]int {
		t.Helper()
		live := e.trigProps
		defer func() { e.trigProps = live }()
		if err := e.loadTrigProps(); err != nil {
			t.Fatal(err)
		}
		return e.trigProps
	}
	want := map[classProp]int{
		{"CycleProvider", rdf.SubjectProperty}: 2, // ANY, and the bare-variable equality
		{"CycleProvider", "serverPort"}:        2,
		{"CycleProvider", "serverHost"}:        1,
		{"ServerInformation", "memory"}:        1,
	}
	if !maps.Equal(e.trigProps, want) {
		t.Fatalf("trigProps = %v, want %v", e.trigProps, want)
	}
	if got := rebuilt(); !maps.Equal(got, e.trigProps) {
		t.Fatalf("rebuilt %v, maintained %v", got, e.trigProps)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(restored.trigProps, e.trigProps) {
		t.Fatalf("after Load %v, before %v", restored.trigProps, e.trigProps)
	}
	for _, id := range ids {
		if err := e.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		if got := rebuilt(); !maps.Equal(got, e.trigProps) {
			t.Fatalf("after unsubscribing %d: rebuilt %v, maintained %v", id, got, e.trigProps)
		}
	}
	if len(e.trigProps) != 0 {
		t.Errorf("trigProps after every unsubscribe = %v", e.trigProps)
	}
}

// TestTriggeringSkipsUnreadAtoms: an update that changes only an atom no
// triggering rule compares loads nothing into FilterData.
func TestTriggeringSkipsUnreadAtoms(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", `search CycleProvider c register c where c.serverPort = 5874`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	doc := figure1Doc()
	host, _ := doc.Find("doc.rdf#host")
	host.Set("serverHost", rdf.Lit("other.uni-passau.de"))
	before := e.Stats()
	ps, err := e.RegisterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if runs := after.FilterRuns - before.FilterRuns; runs == 0 {
		t.Fatal("the update ran no filter")
	}
	if loaded := after.ShardSectionsRun - before.ShardSectionsRun; loaded != 0 {
		t.Errorf("%d filter runs loaded atoms only serverHost changed in", loaded)
	}
	if cs := changesetOf(ps, "lmr1"); cs == nil || len(cs.Upserts) != 1 {
		t.Errorf("the changed host is not re-sent to its subscriber: %+v", cs)
	}
}
