package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toy shrinks a workload to at most 100 rules and 25 documents.
func toy(s spec) spec {
	s.perType = min(s.perType, 100/len(s.ruleTypes))
	s.docs = min(s.docs, s.perType)
	s.payload = min(s.payload, 1<<10)
	return s
}

// toySeconds gives a closed phase of 0.3 s each and an open phase of 0.9 s.
const toySeconds = 1.5

func runToy(t *testing.T, s spec, trace bool) *record {
	t.Helper()
	rec, err := runWorkload(runConfig{spec: toy(s), seed: 7, seconds: toySeconds, trace: trace,
		workDir: t.TempDir(), outDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", s.name, trace, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct %v, %d of %d failed: %v", s.name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Flags)
	}
	return rec
}

// TestSmoke runs all four workloads at toy scale, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted, once, with its
// unit, that the oracle passes, and that the engine's work counters repeat
// exactly for a seed.
func TestSmoke(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	check := func(rec *record, names []string, listed []gated) {
		t.Helper()
		if len(names) != len(listed) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", rec.Workload, len(names), len(listed))
		}
		line, err := resultLine(rec, names)
		if err != nil {
			t.Fatalf("%s: %v", rec.Workload, err)
		}
		for _, g := range listed {
			m, ok := rec.Metrics[g.Name]
			if !ok {
				t.Errorf("%s: metric %s is not emitted", rec.Workload, g.Name)
				continue
			}
			if m.Unit != g.Unit || m.Unit == "" {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, g.Name, m.Unit, g.Unit)
			}
			if n := strings.Count(line, `"`+g.Name+`":`); n != 1 {
				t.Errorf("%s: metric %s appears %d times in the result line", rec.Workload, g.Name, n)
			}
		}
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			rec := runToy(t, w, false)
			check(rec, endToEnd, c.EndToEnd)
			for _, g := range c.EndToEnd {
				if rec.Metrics[g.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", g.Name, rec.Metrics[g.Name].Value)
				}
			}
			first, second := runToy(t, w, true), runToy(t, w, true)
			check(first, perLayer, c.PerLayer)
			for _, name := range []string{"core.trig_matches_per_doc", "core.join_evals_per_doc", "core.join_matches_per_doc",
				"core.filter_iters_per_doc", "core.upserts_built_per_doc", "core.changesets_built_per_doc",
				"core.sharded_runs_share", "core.shard_sections_per_run"} {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
				}
			}
		})
	}
}

// TestRunPrintsResultLine drives the command line as the driver does.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size workload")
	}
	work := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"--workload", "fanout_closure", "--seed", "3", "--seconds", "2", "--trace", "0",
		"--work-dir", work, "--out-dir", filepath.Join(work, "out"), "--out", filepath.Join(work, "set.jsonl")}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, key := range []string{`"correct":true`, `"attempted":`, `"failed":0`, `"metrics":{`, `"setup_s":{"value":`} {
		if !strings.Contains(last, key) {
			t.Errorf("result line lacks %s: %s", key, last)
		}
	}
	set, err := readSet(filepath.Join(work, "set.jsonl"))
	if err != nil || len(set) != 1 || set[0].Env.GOMAXPROCS == 0 || set[0].Seed != 3 {
		t.Errorf("set file: %v, %+v", err, set)
	}
	if left, _ := os.ReadDir(work); len(left) != 2 { // out/ and set.jsonl: the MDP's directories are gone
		t.Errorf("work dir holds %d entries after the run, want 2", len(left))
	}
}
