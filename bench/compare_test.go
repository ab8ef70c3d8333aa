package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := gated{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := gated{Name: "docs_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		g    gated
		a, b []float64
		want string
	}{
		{lower, []float64{10}, []float64{10.5}, "within-bound"},
		{lower, []float64{10}, []float64{12}, "worse"},
		{lower, []float64{10}, []float64{8}, "better"},
		{higher, []float64{100}, []float64{85}, "worse"},
		{higher, []float64{100}, []float64{120}, "better"},
		{higher, []float64{100}, []float64{95}, "within-bound"},
		// The sets' own spread is wider than the bound: nothing can be said.
		{lower, []float64{10, 14, 7, 12, 9}, []float64{12, 12, 12, 12, 12}, "unresolved"},
		{lower, []float64{10, 10.1, 9.9, 10, 10}, []float64{12, 12.1, 11.9, 12, 12}, "worse"},
		{lower, nil, []float64{1}, "unresolved"},
	}
	for i, c := range cases {
		if _, got := verdict(c.g, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	contractJSON := `{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(spec, []byte(contractJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, latency float64, failed int) string {
		rec := record{Workload: "w", Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"latency_ms": {Value: latency, Unit: "ms"}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.jsonl", 10, 0)
	cases := []struct {
		name     string
		path     string
		wantCode int
		row      string // metric whose row must carry the verdict
		verdict  string
	}{
		{"same", set("same.jsonl", 10.4, 0), 0, "latency_ms", "within-bound"},
		{"slower", set("slower.jsonl", 13, 0), 1, "latency_ms", "worse"},
		{"faster", set("faster.jsonl", 7, 0), 0, "latency_ms", "better"},
		{"failing", set("failing.jsonl", 10, 1), 1, "failed_share", "worse"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		code := compareFiles(spec, base, c.path, &out, &errOut)
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, c.row) && strings.HasSuffix(line, c.verdict) {
				found = true
			}
		}
		if code != c.wantCode || !found {
			t.Errorf("%s: exit %d, want %d and a %s row ending in %q; output:\n%s%s",
				c.name, code, c.wantCode, c.row, c.verdict, out.String(), errOut.String())
		}
	}
}
