package chaos

import (
	"regexp"
	"strings"
	"testing"

	"mdv/internal/client"
	"mdv/internal/lmr"
	"mdv/internal/metrics"
	"mdv/internal/provider"
)

// TestMetricsWireRoundTrip drives one publish across real wire connections
// with metrics enabled on both tiers and fetches the rendered registries
// through the protocol itself (the `metrics` request mdvctl uses): the
// provider text must carry the publish stage histograms, SQL counters, and
// the per-subscriber delivery samples labeled with the LMR's name; the LMR
// text must carry the propagation-lag histogram with the push observed.
func TestMetricsWireRoundTrip(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	preg := metrics.NewRegistry()
	prov.EnableMetrics(preg)
	addr, err := prov.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cli, err := client.DialMDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	node, err := lmr.New("sub", schema, cli)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// EnableMetrics on the node also arms the network client's push
	// observer — the cross-clock propagation-lag histogram.
	nreg := metrics.NewRegistry()
	node.EnableMetrics(nreg)
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	nodeAddr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lcli, err := client.DialLMR(nodeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lcli.Close()

	if err := prov.RegisterDocument(hostDoc(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "push applied", func() bool {
		return cached(t, node.Repository(), "host1.rdf#cp")
	})

	text, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"mdv_publish_seconds", "mdv_publish_stage_seconds",
		"mdv_publish_batch_docs", "mdv_engine_stat",
		"mdv_sql_statements_total", "mdv_delivery_fanout_seconds",
		"mdv_subscriber_queue_depth",
	} {
		if !strings.Contains(text, "# TYPE "+fam) {
			t.Errorf("provider metrics text missing family %s", fam)
		}
	}
	if !strings.Contains(text, `mdv_publish_stage_seconds_count{stage="triggering"} 1`) {
		t.Error("provider text does not record the publish's triggering stage")
	}
	if !strings.Contains(text, `mdv_subscriber_enqueued_total{subscriber="sub"} 1`) {
		t.Error("provider text does not sample the subscriber's delivery counters")
	}

	ltext, err := lcli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"mdv_lmr_propagation_seconds", "mdv_lmr_applied_seq",
		"mdv_lmr_resumes_total", "mdv_lmr_reconnects_total",
	} {
		if !strings.Contains(ltext, "# TYPE "+fam) {
			t.Errorf("lmr metrics text missing family %s", fam)
		}
	}
	if !regexp.MustCompile(`mdv_lmr_propagation_seconds_count [1-9]`).MatchString(ltext) {
		t.Error("lmr text records no propagation-lag observation for the live push")
	}
}
