// mdvbench regenerates the performance experiments of the paper's §4
// (Figures 11-15) plus the ablation, baseline, and replication comparisons
// described in DESIGN.md; everything end to end is bench/'s job (bash
// bench/run.sh). For every figure it prints the series the paper plots:
// the average registration time of a single RDF document (total filter
// runtime of a batch divided by the batch size) against the batch size, for
// each rule base configuration.
//
// Methodology, as in the paper: every measurement cell (rule type, rule
// base size, batch size) starts from a freshly prepared engine with the
// rule base registered but no documents, so measurements are independent —
// in particular, COMP's large materialization growth from one measurement
// cannot bleed into the next. Rule-base preparation is excluded from the
// measured time. With -reps > 1 the median of the repetitions is reported
// (each repetition registers a distinct batch into the same fresh engine,
// which matches the paper's "overall runtime / batch size" averaging).
//
// Usage:
//
//	mdvbench -fig all            # everything, paper-scale rule bases
//	mdvbench -fig 12 -scale small -reps 3
//
// Scales: "paper" uses the paper's rule base sizes (OID up to 100,000;
// PATH/COMP/JOIN up to 10,000); "small" divides them by 10 for quick runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mdv/internal/core"
	"mdv/internal/workload"
)

var (
	figFlag   = flag.String("fig", "all", "figures to reproduce, comma-separated: "+strings.Join(figureNames, "|")+"|all")
	scaleFlag = flag.String("scale", "paper", "rule base scale: paper|small")
	repsFlag  = flag.Int("reps", 1, "repetitions per measurement (median reported)")
	batchFlag = flag.String("batches", "1,2,5,10,20,50,100,200,500,1000", "comma-separated batch sizes")
	jsonFlag  = flag.String("json", "", "write measurements as a JSON array to this path")
)

// record is one measurement cell in the -json output.
type record struct {
	Figure   string  `json:"figure"`
	Label    string  `json:"label"`
	RuleType string  `json:"rule_type"`
	Rules    int     `json:"rules"`
	Pct      float64 `json:"pct"`
	Batch    int     `json:"batch"`
	UsPerDoc float64 `json:"us_per_doc"`
	Reps     int     `json:"reps"`
}

var records []record

// figureNames are the values -fig accepts besides "all".
var figureNames = []string{"11", "12", "13", "14", "15", "ablation", "baseline", "replicated"}

func writeJSON(path string) {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mdvbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mdvbench: wrote %d records to %s\n", len(records), path)
}

func main() {
	flag.Parse()
	batches := parseBatches(*batchFlag)
	div := 1
	if *scaleFlag == "small" {
		div = 10
	}

	// selected holds the figures to run; an unknown name is an error, not an
	// empty success.
	selected := map[string]bool{}
	for _, f := range strings.Split(*figFlag, ",") {
		switch f = strings.TrimSpace(f); {
		case f == "all":
			for _, name := range figureNames {
				selected[name] = true
			}
		case slices.Contains(figureNames, f):
			selected[f] = true
		default:
			fmt.Fprintf(os.Stderr, "mdvbench: unknown figure %q (accepted: %s, all)\n",
				f, strings.Join(figureNames, ", "))
			os.Exit(2)
		}
	}

	if selected["11"] {
		figure("11", "Figure 11 — OID rules: avg registration time per document",
			configsFor(workload.OID, 0, []int{10000 / div, 100000 / div}), batches)
	}
	if selected["12"] {
		figure("12", "Figure 12 — PATH rules: avg registration time per document",
			configsFor(workload.PATH, 0, []int{1000 / div, 10000 / div}), batches)
	}
	if selected["13"] {
		figure("13", "Figure 13 — COMP rules (10% of rule base matches)",
			configsFor(workload.COMP, 0.10, []int{1000 / div, 10000 / div}), batches)
	}
	if selected["14"] {
		figure("14", "Figure 14 — JOIN rules: avg registration time per document",
			configsFor(workload.JOIN, 0, []int{1000 / div, 10000 / div}), batches)
	}
	if selected["15"] {
		var cfgs []config
		for _, pct := range []float64{0.01, 0.05, 0.10, 0.20} {
			cfgs = append(cfgs, config{
				label: fmt.Sprintf("pct=%-10.0f", pct*100),
				gen:   workload.Generator{Type: workload.COMP, RuleBase: 10000 / div, MatchPercent: pct},
			})
		}
		figure("15", fmt.Sprintf("Figure 15 — %d COMP rules: varying batch size and matched percentage", 10000/div), cfgs, batches)
	}
	if selected["ablation"] {
		cfgs := []config{
			{label: "PATH grouped", gen: workload.Generator{Type: workload.PATH, RuleBase: 1000 / div}},
			{label: "PATH ungrouped", gen: workload.Generator{Type: workload.PATH, RuleBase: 1000 / div},
				opts: core.Options{DisableRuleGroups: true}},
			{label: "JOIN shared", gen: workload.Generator{Type: workload.JOIN, RuleBase: 1000 / div}},
			{label: "JOIN unshared", gen: workload.Generator{Type: workload.JOIN, RuleBase: 1000 / div},
				opts: core.Options{DisableSharing: true}},
		}
		// The unshared JOIN configuration costs seconds per document (that
		// is the point of the ablation); cap its batches so the sweep stays
		// tractable.
		figure("ablation", "Ablation — rule groups (§3.3.3) and dependency-graph sharing (§3.3.2)", cfgs,
			capBatches(batches, 20))

		// Typed operator indexes (§3.3.4) vs. CAST reconversion at the
		// paper's largest comparison-heavy rule bases, where the CAST path's
		// linear triggering scans dominate.
		typedCfgs := []config{
			{label: "PATH typed", gen: workload.Generator{Type: workload.PATH, RuleBase: 10000 / div}},
			{label: "PATH cast", gen: workload.Generator{Type: workload.PATH, RuleBase: 10000 / div},
				opts: core.Options{DisableTypedIndexes: true}},
			{label: "JOIN typed", gen: workload.Generator{Type: workload.JOIN, RuleBase: 10000 / div}},
			{label: "JOIN cast", gen: workload.Generator{Type: workload.JOIN, RuleBase: 10000 / div},
				opts: core.Options{DisableTypedIndexes: true}},
		}
		figure("ablation", "Ablation — typed operator indexes (§3.3.4) vs. CAST reconversion", typedCfgs,
			capBatches(batches, 100))
	}
	if selected["baseline"] {
		// The naive baseline costs ~100 ms/doc at a 1,000-rule base; cap
		// its batches as well.
		baseline(1000/div, capBatches(batches, 100))
	}
	if selected["replicated"] {
		figureReplicated(div, *repsFlag)
	}
	if *jsonFlag != "" {
		writeJSON(*jsonFlag)
	}
}

type config struct {
	label string
	gen   workload.Generator
	opts  core.Options
}

func configsFor(typ workload.RuleType, pct float64, ruleBases []int) []config {
	var out []config
	for _, rb := range ruleBases {
		out = append(out, config{
			label: fmt.Sprintf("rules=%-9d", rb),
			gen:   workload.Generator{Type: typ, RuleBase: rb, MatchPercent: pct},
		})
	}
	return out
}

// capBatches limits a batch list to sizes <= max (for deliberately slow
// comparison configurations).
func capBatches(batches []int, max int) []int {
	var out []int
	for _, b := range batches {
		if b <= max {
			out = append(out, b)
		}
	}
	return out
}

func parseBatches(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "mdvbench: bad batch size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// setup builds a fresh engine with the generator's rule base registered.
func setup(gen workload.Generator, opts core.Options) *core.Engine {
	engine, err := core.NewEngineWithOptions(workload.Schema(), opts)
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	for i := 0; i < gen.RuleBase; i++ {
		if _, _, err := engine.Subscribe("lmr", gen.Rule(i)); err != nil {
			panic(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mdvbench: %s %d-rule base ready in %v\n",
		gen.Type, gen.RuleBase, time.Since(t0).Round(time.Millisecond))
	return engine
}

// measureCell prepares a fresh engine, registers one small untimed warm-up
// batch (touching code paths once so lazily built state — prepared
// statements, index structure growth — does not land in the first
// measurement; capped well below the measured batch so high-match
// workloads, whose cost grows with accumulated materialization, are not
// distorted), then registers reps distinct timed batches and returns the
// median per-document time in microseconds. The engines of previous cells
// are garbage before each measurement; collect them so one cell's heap
// does not tax the next cell's allocations.
func measureCell(cfg config, batch, reps int) float64 {
	engine := setup(cfg.gen, cfg.opts)
	runtime.GC()
	times := make([]float64, 0, reps)
	offset := 0
	warmN := batch
	if warmN > 16 {
		warmN = 16
	}
	warm := cfg.gen.Batch(offset, warmN)
	offset += warmN
	if _, err := engine.RegisterDocuments(warm); err != nil {
		panic(err)
	}
	for r := 0; r < reps; r++ {
		docs := cfg.gen.Batch(offset, batch)
		offset += batch
		t0 := time.Now()
		if _, err := engine.RegisterDocuments(docs); err != nil {
			panic(err)
		}
		times = append(times, float64(time.Since(t0).Microseconds())/float64(batch))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

func figure(id, title string, cfgs []config, batches []int) {
	fmt.Printf("\n%s\n", title)
	fmt.Printf("%-8s", "batch")
	for _, c := range cfgs {
		fmt.Printf("  %-15s", c.label)
	}
	fmt.Println("   (us/doc)")
	for _, batch := range batches {
		fmt.Printf("%-8d", batch)
		for _, c := range cfgs {
			us := measureCell(c, batch, *repsFlag)
			fmt.Printf("  %-15.1f", us)
			records = append(records, record{
				Figure:   id,
				Label:    strings.TrimSpace(c.label),
				RuleType: c.gen.Type.String(),
				Rules:    c.gen.RuleBase,
				Pct:      c.gen.MatchPercent,
				Batch:    batch,
				UsPerDoc: us,
				Reps:     *repsFlag,
			})
		}
		fmt.Println()
		os.Stdout.Sync()
	}
}

func baseline(ruleBase int, batches []int) {
	fmt.Printf("\nBaseline — filter algorithm vs. naive evaluate-every-rule, PATH rules, %d-rule base\n", ruleBase)
	gen := workload.Generator{Type: workload.PATH, RuleBase: ruleBase}
	fmt.Printf("%-8s  %-15s  %-15s   (us/doc)\n", "batch", "filter", "naive")
	for _, batch := range batches {
		filterUS := measureCell(config{gen: gen}, batch, *repsFlag)

		naive, err := workload.NewBaseline(workload.Schema())
		if err != nil {
			panic(err)
		}
		for i := 0; i < ruleBase; i++ {
			if err := naive.Subscribe(gen.Rule(i)); err != nil {
				panic(err)
			}
		}
		naiveTimes := make([]float64, 0, *repsFlag)
		offset := 0
		for r := 0; r < *repsFlag; r++ {
			docs := gen.Batch(offset, batch)
			offset += batch
			t0 := time.Now()
			if _, err := naive.Register(docs); err != nil {
				panic(err)
			}
			naiveTimes = append(naiveTimes, float64(time.Since(t0).Microseconds())/float64(batch))
		}
		sort.Float64s(naiveTimes)
		naiveUS := naiveTimes[len(naiveTimes)/2]
		fmt.Printf("%-8d  %-15.1f  %-15.1f\n", batch, filterUS, naiveUS)
		records = append(records,
			record{Figure: "baseline", Label: "filter", RuleType: gen.Type.String(),
				Rules: ruleBase, Batch: batch, UsPerDoc: filterUS, Reps: *repsFlag},
			record{Figure: "baseline", Label: "naive", RuleType: gen.Type.String(),
				Rules: ruleBase, Batch: batch, UsPerDoc: naiveUS, Reps: *repsFlag})
	}
}
