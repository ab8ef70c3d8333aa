package sql

import (
	"time"

	"mdv/internal/metrics"
)

// Statement-op classification for metrics labels.
type stmtOp int

const (
	opSelect stmtOp = iota
	opInsert
	opUpdate
	opDelete
	opDDL
	opCount
)

var opNames = [opCount]string{"select", "insert", "update", "delete", "ddl"}

// dbMetrics is the instrument bundle for one DB. It is installed atomically
// so the hot path pays a single pointer load when metrics are disabled.
type dbMetrics struct {
	stmtTotal   [opCount]*metrics.Counter
	stmtSeconds [opCount]*metrics.Histogram
	planHits    *metrics.Counter
	planMisses  *metrics.Counter
	access      [4]*metrics.Counter // indexed by accessKind
}

var accessNames = [4]string{"full_scan", "index_point", "index_prefix", "index_range"}

// EnableMetrics registers this database's instruments on reg and starts
// recording. Before the first call every instrumentation site is a nil
// pointer load.
func (d *DB) EnableMetrics(reg *metrics.Registry) {
	m := &dbMetrics{}
	for op := stmtOp(0); op < opCount; op++ {
		m.stmtTotal[op] = reg.Counter("mdv_sql_statements_total",
			"SQL statements executed, by operation", metrics.L("op", opNames[op]))
		m.stmtSeconds[op] = reg.Histogram("mdv_sql_statement_seconds",
			"SQL statement latency in seconds, by operation",
			metrics.TimeBuckets, metrics.L("op", opNames[op]))
	}
	m.planHits = reg.Counter("mdv_sql_plan_cache_total",
		"statement table plan lookups (SELECT, INSERT, UPDATE, DELETE)", metrics.L("result", "hit"))
	m.planMisses = reg.Counter("mdv_sql_plan_cache_total",
		"statement table plan lookups (SELECT, INSERT, UPDATE, DELETE)", metrics.L("result", "miss"))
	for k := range m.access {
		m.access[k] = reg.Counter("mdv_sql_access_paths_total",
			"relation access paths executed by SELECT, UPDATE and DELETE, by kind", metrics.L("path", accessNames[k]))
	}
	d.met.Store(m)
}

// observeSelect records one SELECT execution: op counters, latency, and the
// access path of every relation in the plan (per execution, not per build,
// so a cached index-range plan still shows up in the scan/range ratio).
func (d *DB) observeSelect(p *selectPlan, t0 time.Time) {
	m := d.met.Load()
	if m == nil {
		return
	}
	m.stmtTotal[opSelect].Inc()
	m.stmtSeconds[opSelect].ObserveSince(t0)
	for _, rel := range p.rels {
		m.access[rel.access.kind].Inc()
	}
}

// observeAccess records the access path of an UPDATE or DELETE execution.
func (d *DB) observeAccess(rel *relPlan) {
	if m := d.met.Load(); m != nil {
		m.access[rel.access.kind].Inc()
	}
}

// observeExec records one non-SELECT statement execution.
func (d *DB) observeExec(op stmtOp, t0 time.Time) {
	m := d.met.Load()
	if m == nil {
		return
	}
	m.stmtTotal[op].Inc()
	m.stmtSeconds[op].ObserveSince(t0)
}

// observePlanCache records a statement table plan lookup.
func (d *DB) observePlanCache(hit bool) {
	m := d.met.Load()
	if m == nil {
		return
	}
	if hit {
		m.planHits.Inc()
	} else {
		m.planMisses.Inc()
	}
}
