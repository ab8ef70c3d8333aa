package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// filterStateTables is every table the subscribe path writes: the atomic
// rule catalog, join rules and groups with their feed edges (together the
// dependency graph), the ten operator filter tables, materialized results,
// the two transient per-run tables, and the subscription bookkeeping itself.
var filterStateTables = []string{
	"AtomicRules", "JoinRules", "GroupFeeds", "RuleGroups",
	"FilterRulesANY", "FilterRulesEQ", "FilterRulesEQN", "FilterRulesNE",
	"FilterRulesNEN", "FilterRulesCON", "FilterRulesLT", "FilterRulesLE",
	"FilterRulesGT", "FilterRulesGE",
	"RuleResults", "FilterData", "ResultObjects",
	"Subscriptions", "SubscriptionEndRules", "SubscriptionAtomicRules",
}

// dumpFilterState renders the full contents of every filter-state table,
// row-order independent, for byte-exact comparison.
func dumpFilterState(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range filterStateTables {
		rows, err := e.db.Query(`SELECT * FROM ` + tbl)
		if err != nil {
			t.Fatalf("dump %s: %v", tbl, err)
		}
		lines := make([]string, 0, rows.Len())
		for _, r := range rows.Data {
			lines = append(lines, fmt.Sprintf("%v", r))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "== %s ==\n", tbl)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// unsubscribeDiffRules cover every filter table and both rule kinds:
// class-only (ANY), string and numeric equality/inequality, contains, all
// four range operators, OR-splitting (several end rules per subscription),
// and reference joins that create join rules, rule groups and group feeds.
var unsubscribeDiffRules = []string{
	`search CycleProvider c register c`,
	`search CycleProvider c register c where c.serverHost = 'pirates.uni-passau.de'`,
	`search CycleProvider c register c where c.serverHost != 'nobody'`,
	`search CycleProvider c register c where c.serverHost contains 'passau'`,
	`search CycleProvider c register c where c.serverPort = 5874 or c.serverPort != 80`,
	`search ServerInformation s register s where s.memory < 100 and s.cpu <= 600`,
	`search ServerInformation s register s where s.memory > 64 or s.cpu >= 500`,
	example331,
	`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort > 1000`,
}

// TestUnsubscribeRestoresFilterState proves full unsubscribe cleanup: after
// a subscribe→unsubscribe cycle — including shared atomic rules from a
// second subscriber and an interleaved publish that materialized results —
// every filter table is byte-identical to its pre-subscribe contents, and a
// subsequent publish performs exactly the filter work a never-subscribed
// engine performs (no leaked rows keep matching). It runs with the
// deprecated Options.Shards at 1 and at 4, which must change nothing.
func TestUnsubscribeRestoresFilterState(t *testing.T) {
	for _, nShards := range []int{1, 4} {
		nShards := nShards
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			runUnsubscribeRestoresFilterState(t, Options{Shards: nShards})
		})
	}
}

func runUnsubscribeRestoresFilterState(t *testing.T, opts Options) {
	e, err := NewEngineWithOptions(paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewEngineWithOptions(paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterDocument(figure1Doc()); err != nil {
		t.Fatal(err)
	}

	before := dumpFilterState(t, e)

	var subIDs []int64
	for _, rule := range unsubscribeDiffRules {
		id, _, err := e.Subscribe("lmr1", rule)
		if err != nil {
			t.Fatalf("subscribe %q: %v", rule, err)
		}
		subIDs = append(subIDs, id)
	}
	// A second subscriber sharing rule texts: the shared atomic rules reach
	// refcount 2, so the first unsubscribes only decrement and the last one
	// must sweep.
	for _, rule := range unsubscribeDiffRules[:4] {
		id, _, err := e.Subscribe("lmr2", rule)
		if err != nil {
			t.Fatal(err)
		}
		subIDs = append(subIDs, id)
	}

	checkNoScratch(t, e)
	during := dumpFilterState(t, e)
	if during == before {
		t.Fatal("subscribing changed no filter table; the differential proves nothing")
	}

	// Publish while subscribed so RuleResults materialize matches that the
	// unsubscribe sweep must remove again.
	doc2 := rdf.NewDocument("doc2.rdf")
	host := doc2.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit("mdv.uni-passau.de"))
	host.Add("serverPort", rdf.Lit("7171"))
	host.Add("serverInformation", rdf.Ref("doc2.rdf#info"))
	info := doc2.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit("128"))
	info.Add("cpu", rdf.Lit("900"))
	if _, err := e.RegisterDocument(doc2); err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterDocument(doc2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteDocument("doc2.rdf"); err != nil {
		t.Fatal(err)
	}
	if _, err := control.DeleteDocument("doc2.rdf"); err != nil {
		t.Fatal(err)
	}

	// Unsubscribe in an order that exercises both the decrement-only and
	// the sweeping path for shared rules.
	for i := len(subIDs) - 1; i >= 0; i-- {
		if err := e.Unsubscribe(subIDs[i]); err != nil {
			t.Fatalf("unsubscribe %d: %v", subIDs[i], err)
		}
	}

	after := dumpFilterState(t, e)
	if after != before {
		t.Errorf("filter state after unsubscribe differs from pre-subscribe state:\n%s",
			diffDumps(before, after))
	}
	checkNoScratch(t, e)

	// Future publishes must cost exactly what they cost an engine that never
	// saw the subscriptions: compare the Stats delta of a fresh registration
	// against the control engine (identical document history, no subs).
	preE, preC := e.Stats(), control.Stats()
	doc3 := rdf.NewDocument("doc3.rdf")
	h3 := doc3.NewResource("host", "CycleProvider")
	h3.Add("serverHost", rdf.Lit("probe.uni-passau.de"))
	h3.Add("serverPort", rdf.Lit("5874"))
	if _, err := e.RegisterDocument(doc3); err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterDocument(doc3); err != nil {
		t.Fatal(err)
	}
	dE, dC := statsDelta(preE, e.Stats()), statsDelta(preC, control.Stats())
	if dE != dC {
		t.Errorf("publish after unsubscribe did filter work a pristine engine does not:\n  got  %+v\n  want %+v", dE, dC)
	}
}

// statsDelta subtracts the filter-work counters of two snapshots.
func statsDelta(before, after Stats) Stats {
	return Stats{
		FilterRuns:        after.FilterRuns - before.FilterRuns,
		FilterIterations:  after.FilterIterations - before.FilterIterations,
		TriggeringMatches: after.TriggeringMatches - before.TriggeringMatches,
		JoinEvaluations:   after.JoinEvaluations - before.JoinEvaluations,
		JoinMatches:       after.JoinMatches - before.JoinMatches,
	}
}

// diffDumps reports the first few differing lines of two table dumps.
func diffDumps(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d: want %q, got %q\n", i+1, w, g)
		if n++; n >= 20 {
			b.WriteString("...\n")
			break
		}
	}
	return b.String()
}
