package main

import (
	"fmt"
	"runtime"

	"mdv/internal/core"
	"mdv/internal/workload"
)

// figureShards measures partition-parallel triggering: publish cost per
// document with the filter engine sharded 1/2/4/8 ways, for the
// triggering-heavy rule shapes at the paper's largest rule bases. shards=1
// (core.Options{Shards: 1}, one section holding every rule) is the
// reference column; the others only separate from it on a multi-core host
// (GOMAXPROCS bounds the useful shard count).
func figureShards(div int, batches []int) {
	fmt.Printf("\nSharded triggering — GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	for _, typ := range []workload.RuleType{workload.PATH, workload.JOIN, workload.COMP} {
		rb := 10000 / div
		gen := workload.Generator{Type: typ, RuleBase: rb}
		if typ == workload.COMP {
			gen.MatchPercent = 0.10
		}
		var cfgs []config
		for _, n := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs, config{
				label: fmt.Sprintf("shards=%-8d", n),
				gen:   gen,
				opts:  core.Options{Shards: n},
			})
		}
		figure("shards", fmt.Sprintf("Sharded triggering — %s rules, %d-rule base", typ, rb),
			cfgs, capBatches(batches, 100))
	}
}
