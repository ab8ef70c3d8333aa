package chaos

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
	"mdv/internal/wire"
	"mdv/internal/workload"
)

// fanoutDoc is workload document i with overridable port and memory — the
// memory value decides which PATH rule (if any) the document matches.
func fanoutDoc(gen workload.Generator, i, port, memory int) *rdf.Document {
	doc := gen.Document(i)
	host, _ := doc.Find(doc.QualifyID("host"))
	host.Set("serverPort", rdf.Lit(fmt.Sprint(port)))
	info, _ := doc.Find(doc.QualifyID("info"))
	info.Set("memory", rdf.Lit(fmt.Sprint(memory)))
	return doc
}

// renderCache renders a cache state — every resource's canonical fingerprint
// plus its credit set — for byte-for-byte comparison.
func renderCache(resources map[string]*rdf.Resource, credits map[string][]int64) string {
	var b strings.Builder
	for _, uri := range slices.Sorted(maps.Keys(resources)) {
		slices.Sort(credits[uri])
		fmt.Fprintf(&b, "%s credits=%v %s\n", uri, credits[uri], resources[uri].Fingerprint())
	}
	return b.String()
}

// repoDump renders what an LMR caches.
func repoDump(t *testing.T, node *lmr.Node) string {
	t.Helper()
	resources := map[string]*rdf.Resource{}
	credits := map[string][]int64{}
	for _, class := range []string{"CycleProvider", "ServerInformation"} {
		rs, err := node.Repository().Resources(class)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			resources[r.URIRef] = r
			if credits[r.URIRef], err = node.Repository().CreditsOf(r.URIRef); err != nil {
				t.Fatal(err)
			}
		}
	}
	return renderCache(resources, credits)
}

// expectedDump renders what an LMR must cache, computed from the primary:
// the resources matching each of its subscriptions, credited with that
// subscription, plus their strong closure (§2.4), uncredited.
func expectedDump(t *testing.T, engine *core.Engine, node *lmr.Node) string {
	t.Helper()
	resources := map[string]*rdf.Resource{}
	credits := map[string][]int64{}
	var matched []*rdf.Resource
	for subID := range node.Subscriptions() {
		rs, err := engine.MatchingResources(subID)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			resources[r.URIRef] = r
			credits[r.URIRef] = append(credits[r.URIRef], subID)
			matched = append(matched, r)
		}
	}
	for queue := matched; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, p := range cur.Props {
			if p.Value.Kind != rdf.ResourceRef || !engine.Schema().IsStrongReference(cur.Class, p.Name) ||
				resources[p.Value.Ref] != nil {
				continue
			}
			target, ok, err := engine.GetResource(p.Value.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				resources[target.URIRef] = target
				queue = append(queue, target)
			}
		}
	}
	return renderCache(resources, credits)
}

// TestCoalescedFanoutConvergence proves interest-group delivery correct end
// to end over real wire connections: one MDP and four wire-attached LMRs —
// two with identical rules, one partially overlapping, one distinct — go
// through upserts, updates, removals, and a delete, and every LMR must end
// byte-identical to its rules evaluated over the primary's documents plus
// the strong closure — through shared changesets, MemberCredits filtering
// and encode-once frames. (That the group build equals the per-subscriber
// build is core's TestCoalescingAblationParity.) Run under -race in CI.
func TestCoalescedFanoutConvergence(t *testing.T) {
	schema := workload.Schema()
	gen := workload.Generator{Type: workload.PATH, RuleBase: 2}
	prov, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	addr, err := prov.ServeConfig("127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}

	cliCfg := client.Config{CallTimeout: 30 * time.Second}
	rules := map[string][]string{
		"lmr-a": {gen.Rule(0)},
		"lmr-b": {gen.Rule(0)},              // identical to lmr-a
		"lmr-c": {gen.Rule(0), gen.Rule(1)}, // overlaps lmr-a and lmr-d
		"lmr-d": {gen.Rule(1)},
	}
	nodes := map[string]*lmr.Node{}
	for _, name := range []string{"lmr-a", "lmr-b", "lmr-c", "lmr-d"} {
		cli, err := client.DialMDPConfig(addr, cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		node, err := lmr.New(name, schema, cli)
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range rules[name] {
			if _, err := node.AddSubscription(rule); err != nil {
				t.Fatal(err)
			}
		}
		nodes[name] = node
	}

	writer, err := client.DialMDPConfig(addr, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	// Upserts: doc0 matches rule 0 ({lmr-a,lmr-b,lmr-c} coalesce), doc1
	// matches rule 1 ({lmr-c is already grouped apart}, lmr-d), docs 2-3
	// match nothing yet.
	register := func(docs ...*rdf.Document) {
		t.Helper()
		if err := writer.RegisterDocuments(docs); err != nil {
			t.Fatal(err)
		}
	}
	register(fanoutDoc(gen, 0, 80, 0), fanoutDoc(gen, 1, 80, 1),
		fanoutDoc(gen, 2, 80, 2), fanoutDoc(gen, 3, 80, 3))
	// Updates: same matches, changed content — republished to the groups.
	register(fanoutDoc(gen, 0, 81, 0), fanoutDoc(gen, 1, 81, 1))
	// doc2 joins rule 0, then leaves it: one coalesced upsert group and one
	// coalesced removal group over {lmr-a, lmr-b, lmr-c}.
	register(fanoutDoc(gen, 2, 81, 0))
	register(fanoutDoc(gen, 2, 82, 99))
	// doc3 joins rule 1 ({lmr-c, lmr-d}), then doc1 is deleted at the
	// source: forced deletes for the same pair.
	register(fanoutDoc(gen, 3, 81, 1))
	if err := writer.DeleteDocument("doc1.rdf"); err != nil {
		t.Fatal(err)
	}

	// Final state: doc0 for rule 0, doc3 for rule 1, docs 1-2 gone.
	want := map[string]map[string]bool{
		"lmr-a": {"doc0.rdf#host": true, "doc1.rdf#host": false, "doc2.rdf#host": false, "doc3.rdf#host": false},
		"lmr-b": {"doc0.rdf#host": true, "doc1.rdf#host": false, "doc2.rdf#host": false, "doc3.rdf#host": false},
		"lmr-c": {"doc0.rdf#host": true, "doc1.rdf#host": false, "doc2.rdf#host": false, "doc3.rdf#host": true},
		"lmr-d": {"doc0.rdf#host": false, "doc1.rdf#host": false, "doc2.rdf#host": false, "doc3.rdf#host": true},
	}
	for name, node := range nodes {
		node := node
		wantSet := want[name]
		waitUntil(t, name+" convergence", func() bool {
			for uri, present := range wantSet {
				if cached(t, node.Repository(), uri) != present {
					return false
				}
			}
			return true
		})
	}

	for name, node := range nodes {
		got, want := repoDump(t, node), expectedDump(t, prov.Engine(), node)
		if got != want {
			t.Errorf("%s cache differs from its rules over the primary:\ncached:\n%s\nexpected:\n%s", name, got, want)
		}
		if got == "" {
			t.Errorf("%s converged to an empty cache", name)
		}
		if err := node.Close(); err != nil {
			t.Errorf("close %s: %v", name, err)
		}
	}
}
