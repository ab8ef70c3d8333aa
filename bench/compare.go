package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// contract is the part of BENCHMARK.json the benchmark reads back.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []gated `json:"per_layer"`
}

// gated is one metric of the contract; per-layer metrics have no bound.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readSet reads a JSON-lines file of records, keeping the untraced ones.
func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// side is one set's runs of one workload: each metric's values, and the
// share of operations that failed.
type side struct {
	values      map[string][]float64
	failedShare float64
	runs        int
}

func sideOf(set []record, workload string) side {
	s := side{values: map[string][]float64{}}
	var attempted, failed int
	for _, rec := range set {
		if rec.Workload != workload {
			continue
		}
		s.runs++
		attempted += rec.Attempted
		failed += rec.Failed
		for name, m := range rec.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	if attempted > 0 {
		s.failedShare = float64(failed) / float64(attempted)
	}
	return s
}

// verdict judges b against a for one metric: the medians' ratio (b over a)
// against the metric's bound, and against the sets' own run-to-run spread
// where a set has enough runs to show one. A difference inside the bound is
// within-bound; outside it, better or worse by the metric's direction —
// unless the spread is wider than the bound, which leaves it unresolved.
func verdict(g gated, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if g.Better == "higher" {
		worse = 1 - ratio
	}
	for _, v := range [][]float64{a, b} {
		if spread, ok := iqrShare(v); ok && spread > g.Bound {
			return ratio, "unresolved"
		}
	}
	switch {
	case worse > g.Bound:
		return ratio, "worse"
	case worse < -g.Bound:
		return ratio, "better"
	}
	return ratio, "within-bound"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns non-zero when any is worse or more operations failed.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	c, err := readContract(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	setA, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	setB, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "a = %s, b = %s; ratio = median(b) / median(a)\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-22s %-22s %6s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "runs", "a", "b", "ratio", "bound", "verdict")
	bad := 0
	for _, w := range c.Workloads {
		a, b := sideOf(setA, w.Name), sideOf(setB, w.Name)
		for _, g := range c.EndToEnd {
			ratio, v := verdict(g, a.values[g.Name], b.values[g.Name])
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %-22s %3d/%-3d %14.4f %14.4f %8.3f %6.2f  %s\n",
				w.Name, g.Name, a.runs, b.runs, median(a.values[g.Name]), median(b.values[g.Name]), ratio, g.Bound, v)
		}
		v := "within-bound"
		if b.failedShare > a.failedShare {
			v = "worse"
			bad++
		}
		fmt.Fprintf(stdout, "%-22s %-22s %3d/%-3d %14.6f %14.6f %8s %6s  %s\n",
			w.Name, "failed_share", a.runs, b.runs, a.failedShare, b.failedShare, "-", "0", v)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse\n", bad)
		return 1
	}
	return 0
}
