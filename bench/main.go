// Command bench is the register → LMR-applied benchmark: it boots, in one
// process, a durable MDP and real LMR nodes over loopback wire connections,
// drives them from one registrar connection and one query connection, checks
// every output against an oracle, and reports end-to-end metrics (-trace 0)
// or per-layer metrics (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// endToEnd are the gated metrics, printed by an untraced run. BENCHMARK.json
// lists the same names with their bounds (TestSmoke compares the two).
var endToEnd = []string{
	"setup_s", "register_docs_per_s", "register_ack_p50_ms", "propagate_p50_ms",
	"queries_per_s", "query_p50_ms", "cpu_ms_per_doc", "heap_live_mb",
}

// perLayer are the diagnostic metrics, printed by a traced run.
var perLayer = []string{
	"failed_share", "register_ack_p95_ms", "propagate_p95_ms", "query_p95_ms",
	"gen.late_p95_ms", "gen.open_backlog_max",
	"rdf.write_us_per_doc", "rdf.parse_us_per_doc",
	"rules.parse_normalize_us_per_rule", "core.subscribe_us_per_rule",
	"core.register_b1_us_per_doc", "core.register_b16_us_per_doc",
	"core.trig_matches_per_doc", "core.join_evals_per_doc", "core.join_matches_per_doc",
	"core.filter_iters_per_doc", "core.upserts_built_per_doc", "core.changesets_built_per_doc",
	"core.sharded_runs_share", "core.shard_sections_per_run",
	"core.stage_prepare_us", "core.stage_lock_wait_us", "core.stage_triggering_us",
	"core.stage_join_us", "core.stage_changeset_us",
	"core.snapshot_mb", "core.save_ms", "core.load_ms",
	"rdb.sql_stmts_per_doc", "rdb.sql_us_per_doc", "rdb.plan_cache_hit_share",
	"changelog.append_us", "changelog.wait_durable_us", "changelog.bytes_per_doc",
	"changelog.fsyncs_per_doc", "changelog.group_commit_records",
	"provider.register_inproc_us_per_doc", "provider.fanout_us", "provider.turnstile_wait_us",
	"provider.groups_per_publish",
	"wire.encode_us_per_frame", "wire.decode_us_per_frame", "wire.push_bytes_per_lmr_doc",
	"client.register_rtt_p50_ms", "client.query_rtt_p50_ms",
	"lmr.push_arrive_p50_ms", "lmr.apply_us_per_push", "lmr.apply_p95_us",
	"repository.apply_us_per_push", "repository.rows_per_push", "repository.gc_us",
	"query.eval_point_us", "query.eval_path_us", "query.eval_contains_us", "lmr.query_inproc_us",
	"trace.overhead_share", "trace.unattributed_share", "box.slowdown",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: one of the four names, or all (each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the document order, version values and query choice")
	seconds := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
	out := fs.String("out", "", "append the run's full record to this JSON-lines file (a set, for -compare)")
	compare := fs.Bool("compare", false, "compare two sets of records: -compare a.jsonl b.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract, for -compare's bounds")
	workDir := fs.String("work-dir", ".bench_build", "directory for the MDP's data (created; emptied of this run's files on exit)")
	outDir := fs.String("out-dir", filepath.Join("bench", "out"), "directory for records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec, err := runWorkload(runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0,
		workDir: *workDir, outDir: *outDir, log: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", spec.name, *seed, err)
		return 1
	}
	rec.print(stdout)
	if err := saveRecord(rec, *outDir, *out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		// A fast wrong answer is not a result: no result line.
		fmt.Fprintf(stderr, "bench: %s seed %d: outputs are wrong: %v\n", spec.name, *seed, rec.Flags)
		return 1
	}
	names := endToEnd
	if rec.Trace {
		names = perLayer
	}
	line, err := resultLine(rec, names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine is the one JSON object the driver reads from the last line.
func resultLine(rec *record, names []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, name := range names {
		m, ok := rec.Metrics[name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// saveRecord writes the full record to out-dir and appends it to the set.
func saveRecord(rec *record, outDir, set string) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", rec.Workload, rec.Seed, btoi(rec.Trace))
	if err := os.WriteFile(filepath.Join(outDir, name), b, 0o644); err != nil {
		return err
	}
	if set == "" {
		return nil
	}
	f, err := os.OpenFile(set, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// so no workload inherits another's heap; each child prints its own metrics.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
