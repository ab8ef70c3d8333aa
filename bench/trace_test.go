package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(0, "op", "root", at(0), at(100), false)
	a := tr.add(root, "op", "a", at(10), at(30), false)
	tr.add(root, "op", "b", at(20), at(50), false)         // overlaps a: union [10,50]
	tr.add(root, "op", "c", at(90), at(120), false)        // clipped to [90,100]
	tr.add(root, "op", "replayed", at(500), at(515), true) // ran later: covers its 15 ms
	tr.add(a, "op", "a.replay", at(600), at(660), true)    // longer than a itself
	self := tr.selfTimes()
	if got, want := self[root], 35*time.Millisecond; got != want { // 100 - (40 + 10 + 15)
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got := self[a]; got != 0 {
		t.Errorf("a self time %v, want 0 (cover is capped at the span's duration)", got)
	}
	if got, want := self[3], 30*time.Millisecond; got != want {
		t.Errorf("leaf self time %v, want its duration %v", got, want)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var row struct {
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Name   string  `json:"name"`
			DurUS  float64 `json:"dur_us"`
			SelfUS float64 `json:"self_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if lines++; row.ID == root && (row.DurUS != 100_000 || row.SelfUS != 35_000) {
			t.Errorf("root row %+v, want dur 100000 self 35000", row)
		}
	}
	if lines != len(tr.spans) {
		t.Errorf("%d lines for %d spans", lines, len(tr.spans))
	}
}
