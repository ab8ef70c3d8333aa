package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mdv/internal/lmr"
	"mdv/internal/metrics"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

// TestMetricsCoherenceUnderConcurrentPublish hammers an instrumented
// provider with parallel registrations and updates while scrapers race the
// writers, then checks the registry is exactly coherent:
//
//   - Operation counts are exact: every stage histogram saw precisely the
//     expected number of observations (updates run the filter twice — once
//     over the old version, once over the new — so the triggering and join
//     stages count registrations + 2*updates).
//   - The stages are disjoint slices of one registration, so the per-stage
//     sums together never exceed the whole-publish sum.
//   - Histogram counts are derived from the bucket counters, so a scrape
//     can never see count != sum(buckets), and the pipeline's observation
//     order (prepare -> lock_wait -> ... -> changeset -> publish) holds at
//     every instant, not just at quiescence.
//
// Run with -race: the mid-flight scrapers exercise the same lock-free reads
// a /metrics scrape performs against the PR 4 concurrent publish path.
func TestMetricsCoherenceUnderConcurrentPublish(t *testing.T) {
	schema := soundnessSchema()
	prov, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	reg := metrics.NewRegistry()
	prov.EnableMetrics(reg)
	node, err := lmr.New("lmr", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(
		`search CycleProvider c register c where c.serverPort >= 0`); err != nil {
		t.Fatal(err)
	}

	// Instrument registration is idempotent, so asking again for the same
	// family and label set yields the engine's own histograms.
	publish := reg.Histogram("mdv_publish_seconds", "", metrics.TimeBuckets)
	batch := reg.Histogram("mdv_publish_batch_docs", "", metrics.SizeBuckets)
	stageNames := []string{"prepare", "lock_wait", "triggering", "join", "changeset"}
	stage := map[string]*metrics.Histogram{}
	for _, s := range stageNames {
		stage[s] = reg.Histogram("mdv_publish_stage_seconds", "", metrics.TimeBuckets,
			metrics.L("stage", s))
	}

	mkDoc := func(w, i, port int) *rdf.Document {
		doc := rdf.NewDocument(fmt.Sprintf("m%d-%d.rdf", w, i))
		cp := doc.NewResource("cp", "CycleProvider")
		cp.Add("serverHost", rdf.Lit("h.example.org"))
		cp.Add("serverPort", rdf.Lit(fmt.Sprint(port)))
		cp.Add("synthValue", rdf.Lit("1"))
		return doc
	}

	const writers = 4
	const docsPerWriter = 20
	const updatesPerWriter = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				if err := prov.RegisterDocument(mkDoc(w, i, i)); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			// Updates change serverPort so the diff is non-empty and both
			// filter executions (old version, new version) actually run.
			for i := 0; i < updatesPerWriter; i++ {
				if err := prov.RegisterDocument(mkDoc(w, i, i+1000)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}

	// Scrapers racing the writers: rendered text plus the instantaneous
	// pipeline-order invariants. Each stage is observed before the next, so
	// at any instant the downstream count can never exceed the upstream one
	// — a torn or misordered read would show up here (and under -race).
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p, c := publish.Count(), stage["changeset"].Count(); p > c {
					t.Errorf("publish count %d > changeset count %d (publish is observed last)", p, c)
					return
				}
				if c, l := stage["changeset"].Count(), stage["lock_wait"].Count(); c > l {
					t.Errorf("changeset count %d > lock_wait count %d", c, l)
					return
				}
				if l, p := stage["lock_wait"].Count(), stage["prepare"].Count(); l > p {
					t.Errorf("lock_wait count %d > prepare count %d", l, p)
					return
				}
				if j, tr := stage["join"].Count(), stage["triggering"].Count(); j > tr {
					t.Errorf("join count %d > triggering count %d", j, tr)
					return
				}
				if text := reg.Text(); !strings.Contains(text, "mdv_publish_seconds_count") {
					t.Error("scrape missing mdv_publish_seconds_count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Exact operation counts at quiescence.
	const regs = writers * docsPerWriter
	const upds = writers * updatesPerWriter
	const calls = regs + upds
	if got := publish.Count(); got != calls {
		t.Errorf("publish count = %d, want %d", got, calls)
	}
	if got := batch.Count(); got != calls {
		t.Errorf("batch-docs count = %d, want %d", got, calls)
	}
	if got := batch.Sum(); got != float64(calls) {
		t.Errorf("batch-docs sum = %g, want %d (one document per registration)", got, calls)
	}
	for _, s := range []string{"prepare", "lock_wait", "changeset"} {
		if got := stage[s].Count(); got != calls {
			t.Errorf("stage %s count = %d, want %d", s, got, calls)
		}
	}
	// Updates run the filter twice: over the old version (retraction) and
	// the new one (materialization).
	for _, s := range []string{"triggering", "join"} {
		if got, want := stage[s].Count(), uint64(regs+2*upds); got != want {
			t.Errorf("stage %s count = %d, want %d", s, got, want)
		}
	}

	// Disjoint-slices invariant: the five stages partition distinct spans
	// of each registration, so their sums are bounded by the total (small
	// epsilon for float accumulation).
	var stagesSum float64
	for _, h := range stage {
		stagesSum += h.Sum()
	}
	if pub := publish.Sum(); stagesSum > pub+1e-6 {
		t.Errorf("sum of stage sums %g exceeds total publish sum %g", stagesSum, pub)
	}

	// Count is derived from the bucket counters — never stored separately.
	hists := map[string]*metrics.Histogram{"publish": publish, "batch": batch}
	for s, h := range stage {
		hists["stage:"+s] = h
	}
	for name, h := range hists {
		_, counts := h.Buckets()
		var n uint64
		for _, c := range counts {
			n += c
		}
		if n != h.Count() {
			t.Errorf("%s: bucket sum %d != count %d", name, n, h.Count())
		}
	}

	// The final exposition carries every engine family.
	text := reg.Text()
	for _, fam := range []string{
		"mdv_publish_seconds", "mdv_publish_stage_seconds",
		"mdv_publish_batch_docs", "mdv_engine_stat",
	} {
		if !strings.Contains(text, "# TYPE "+fam) {
			t.Errorf("final scrape missing family %s", fam)
		}
	}
	if got := node.Repository().Len(); got != regs {
		t.Errorf("cache holds %d resources, want %d", got, regs)
	}
}
