package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mdv/internal/metrics"
)

// Publish pipeline stages (§3.4/§3.5 phases plus the PR 4 concurrency
// seams), each a label on the mdv_publish_stage_seconds histogram. The
// stages are disjoint slices of a registration, so the per-stage sums are
// bounded by mdv_publish_seconds_sum — the invariant the -race coherence
// test checks.
type pubStage int

const (
	stagePrepare pubStage = iota // pre-lock batch decomposition
	stageLockWait
	stageTriggering // filter phase 1: affected triggering rules
	stageJoin       // filter phase 2: dependent join-group fixpoint
	stageChangeset  // buildPublishSet: per-subscriber changeset assembly
	stageCount
)

var stageNames = [stageCount]string{"prepare", "lock_wait", "triggering", "join", "changeset"}

type engineMetrics struct {
	stage     [stageCount]*metrics.Histogram
	publish   *metrics.Histogram
	batchDocs *metrics.Histogram
}

// slowOpLog is the -slow-threshold configuration: publishes slower than
// threshold log a per-trigger-table / per-join-group time breakdown.
type slowOpLog struct {
	threshold time.Duration
	logf      func(format string, args ...any)
}

// EnableMetrics attaches the engine (and its SQL database) to the registry.
// Until called, every instrumentation site is a single nil pointer load —
// the disabled-by-default contract the publish benchmarks rely on.
func (e *Engine) EnableMetrics(reg *metrics.Registry) {
	m := &engineMetrics{}
	for s := pubStage(0); s < stageCount; s++ {
		m.stage[s] = reg.Histogram("mdv_publish_stage_seconds",
			"publish pipeline stage duration in seconds",
			metrics.TimeBuckets, metrics.L("stage", stageNames[s]))
	}
	m.publish = reg.Histogram("mdv_publish_seconds",
		"whole-registration duration in seconds (prepare through changeset build)",
		metrics.TimeBuckets)
	m.batchDocs = reg.Histogram("mdv_publish_batch_docs",
		"documents per registration batch", metrics.SizeBuckets)
	if e.text != nil {
		reg.GaugeFunc("mdv_text_index_rules",
			"live contains-rule constants in the substring index", func() float64 {
				e.mu.RLock()
				defer e.mu.RUnlock()
				return float64(e.text.ruleCount())
			})
		reg.GaugeFunc("mdv_text_index_nodes",
			"states across the compiled per-cohort Aho-Corasick automata "+
				"(cohorts mutated since their last scan report 0 until recompiled)",
			func() float64 {
				e.mu.RLock()
				defer e.mu.RUnlock()
				return float64(e.text.nodeCount())
			})
		reg.SampleFunc("mdv_text_index_scans_total",
			"atom values scanned through a cohort automaton",
			metrics.TypeCounter, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(e.text.scans.Load())}}
			})
		reg.SampleFunc("mdv_text_index_matches_total",
			"candidate (rule, atom) pairs emitted by the substring index",
			metrics.TypeCounter, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(e.text.matches.Load())}}
			})
	}
	reg.SampleFunc("mdv_engine_stat",
		"engine work counters (core.Stats), by counter name",
		metrics.TypeCounter, func() []metrics.Sample {
			s := e.Stats()
			mk := func(name string, v int) metrics.Sample {
				return metrics.Sample{Labels: []metrics.Label{metrics.L("name", name)}, Value: float64(v)}
			}
			return []metrics.Sample{
				mk("documents_registered", s.DocumentsRegistered),
				mk("resources_registered", s.ResourcesRegistered),
				mk("filter_runs", s.FilterRuns),
				mk("filter_iterations", s.FilterIterations),
				mk("triggering_matches", s.TriggeringMatches),
				mk("join_evaluations", s.JoinEvaluations),
				mk("join_matches", s.JoinMatches),
				mk("atomic_rules_shared", s.AtomicRulesShared),
				mk("atomic_rules_created", s.AtomicRulesCreated),
			}
		})
	e.obs.met.Store(m)
	e.db.EnableMetrics(reg)
}

// SetSlowOpLog enables (or, with threshold <= 0, disables) the slow-publish
// log: registrations slower than threshold log which trigger tables and
// join groups dominated the filter run.
func (e *Engine) SetSlowOpLog(threshold time.Duration, logf func(format string, args ...any)) {
	if threshold <= 0 || logf == nil {
		e.obs.slow.Store(nil)
		return
	}
	e.obs.slow.Store(&slowOpLog{threshold: threshold, logf: logf})
}

// observeStage records one pipeline stage duration.
func (e *Engine) observeStage(s pubStage, t0 time.Time) {
	if m := e.obs.met.Load(); m != nil {
		m.stage[s].ObserveSince(t0)
	}
}

// publishTrace accumulates per-statement attribution for one registration.
// It lives on the engine and is only touched under the exclusive lock, so
// plain maps suffice.
type publishTrace struct {
	trig  map[string]time.Duration // trigger table (EQ, LT, ...) -> time
	group map[int64]time.Duration  // join group id -> time
}

// traceTrig attributes trigger-statement time when a trace is active.
func (e *Engine) traceTrig(op string, d time.Duration) {
	if e.obs.trace != nil {
		e.obs.trace.trig[op] += d
	}
}

// traceGroup attributes join-group evaluation time when a trace is active.
func (e *Engine) traceGroup(gid int64, d time.Duration) {
	if e.obs.trace != nil {
		e.obs.trace.group[gid] += d
	}
}

// logSlowPublish emits the slow-operation breakdown for one registration.
func logSlowPublish(sl *slowOpLog, docs int, total time.Duration, tr *publishTrace) {
	type item struct {
		name string
		d    time.Duration
	}
	var items []item
	for op, d := range tr.trig {
		items = append(items, item{"trigger:" + op, d})
	}
	for gid, d := range tr.group {
		items = append(items, item{fmt.Sprintf("group:%d", gid), d})
	}
	sort.Slice(items, func(a, b int) bool { return items[a].d > items[b].d })
	if len(items) > 5 {
		items = items[:5]
	}
	parts := ""
	for _, it := range items {
		parts += fmt.Sprintf(" %s=%s", it.name, it.d)
	}
	sl.logf("core: slow publish: %d docs in %s (threshold %s); dominated by:%s",
		docs, total, sl.threshold, parts)
}

// Engine metric/slow-log state, split out so engine.go stays focused on
// the filter algorithm. Both pointers are atomic: they are read outside
// the engine lock (prepare and lock-wait stages run pre-lock).
type engineObs struct {
	met  atomic.Pointer[engineMetrics]
	slow atomic.Pointer[slowOpLog]
	// trace is non-nil only while a slow-logged registration is running;
	// guarded by the exclusive engine lock.
	trace *publishTrace
}
