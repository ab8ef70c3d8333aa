package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdf"
)

// Differential tests for the contains-rule substring index: an engine with
// the text index enabled must be observationally identical to the
// scan reference (e.text == nil) — same publish sets byte for byte, same
// stats, same filter tables, same materialized matches — over randomized
// mixes of register, rewrite, delete, subscribe, and unsubscribe heavy on the
// contains edge cases the index must reproduce exactly: the empty constant
// (matches everything), multi-byte UTF-8 constants, case sensitivity, and
// bare-variable `c contains 'x'` rules matching the URIref.

var (
	textDiffNeedles     = []string{"", "passau", "a", "00", "ü", "grün", "🚲", "PASSAU", ".de", "ß"}
	textDiffBareNeedles = []string{"", "doc", "rdf#host", "7", "#dp"}
	textDiffHosts       = []string{
		"pirates.uni-passau.de", "grün.uni-passau.de", "GRÜN.UNI-PASSAU.DE",
		"🚲🚲.example.org", "007", "", "straße.de",
	}
	textDiffThemes = []string{"astronomy", "x-ray", "ünïcode"}
)

// textDiffRule draws one rule, weighted toward the contains shapes; the
// remaining draws reuse the shared generator (genRule) so the index is
// exercised among every other operator.
func textDiffRule(rng *rand.Rand) string {
	needle := func() string { return textDiffNeedles[rng.Intn(len(textDiffNeedles))] }
	switch rng.Intn(10) {
	case 0: // property contains
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s'`, needle())
	case 1: // bare-variable contains (matches the URIref)
		return fmt.Sprintf(`search CycleProvider c register c where c contains '%s'`,
			textDiffBareNeedles[rng.Intn(len(textDiffBareNeedles))])
	case 2: // contains on a set-valued property of another class
		return fmt.Sprintf(`search DataProvider d register d where d.theme contains '%s'`,
			[]string{"astro", "x", "ünï", ""}[rng.Intn(4)])
	case 3: // contains shared with a numeric predicate
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s' and c.serverPort %s %d`,
			needle(), genOp(rng), rng.Intn(6000))
	case 4: // OR-split over two contains constants
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s' or c contains '%s'`,
			needle(), textDiffBareNeedles[rng.Intn(len(textDiffBareNeedles))])
	case 5: // contains feeding a reference join
		return fmt.Sprintf(
			`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverHost contains '%s'`,
			needle())
	default:
		return genRule(rng)
	}
}

// textDiffDoc draws one document over text-heavy value pools (UTF-8 hosts,
// case variants, the empty string).
func textDiffDoc(rng *rand.Rand, i int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(textDiffHosts[rng.Intn(len(textDiffHosts))]))
	host.Add("serverPort", rdf.Lit(genPorts[rng.Intn(len(genPorts))]))
	switch rng.Intn(4) {
	case 0, 1:
		host.Add("serverInformation", rdf.Ref(doc.URI+"#info"))
		info := doc.NewResource("info", "ServerInformation")
		info.Add("memory", rdf.Lit(genInts[rng.Intn(len(genInts))]))
		info.Add("cpu", rdf.Lit(genInts[rng.Intn(len(genInts))]))
	case 2:
		host.Add("serverInformation", rdf.Ref(fmt.Sprintf("doc%d.rdf#info", rng.Intn(10))))
	}
	if rng.Intn(3) == 0 {
		dp := doc.NewResource("dp", "DataProvider")
		for _, th := range textDiffThemes[:1+rng.Intn(len(textDiffThemes))] {
			dp.Add("theme", rdf.Lit(th))
		}
		dp.Add("host", rdf.Ref(doc.URI+"#host"))
	}
	return doc
}

// TestTextIndexDifferential drives an indexed engine and the scan ablation
// through identical randomized workloads and requires identical observable
// behavior at every step; it then checks that snapshots re-save
// byte-identically and that reloaded engines publish like the live ones.
// Each seed runs with the deprecated Options.Shards at 1 and at 4, the
// values the bench module passes: the field must change nothing.
func TestTextIndexDifferential(t *testing.T) {
	seeds := []int64{7, 1234, 80731}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, nShards := range []int{1, 4} {
		for _, seed := range seeds {
			nShards, seed := nShards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", nShards, seed), func(t *testing.T) {
				runTextDifferential(t, Options{Shards: nShards}, seed)
			})
		}
	}
}

func runTextDifferential(t *testing.T, opts Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	indexed, err := NewEngineWithOptions(paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewEngineWithOptions(paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.text == nil {
		t.Fatal("indexed engine has no text index")
	}
	// The reference: without the index the CON triggering query runs. Set
	// before any rule exists, so there is nothing to keep in step.
	scan.text = nil

	live := map[string]bool{}
	var subs []int64
	subscribers := []string{"lmr1", "lmr2", "lmr3"}

	pickDoc := func() string {
		uris := make([]string, 0, len(live))
		for u := range live {
			uris = append(uris, u)
		}
		sort.Strings(uris)
		return uris[rng.Intn(len(uris))]
	}
	check := func(step int, what string) {
		t.Helper()
		// The index replaces one triggering query, not the work it
		// counts: every counter must match exactly.
		if gi, gs := indexed.Stats(), scan.Stats(); gi != gs {
			t.Fatalf("step %d (%s): stats diverged\n indexed %+v\n scan    %+v", step, what, gi, gs)
		}
		di, ds := dumpFilterState(t, indexed), dumpFilterState(t, scan)
		if di != ds {
			t.Fatalf("step %d (%s): filter state diverged:\n%s", step, what, diffDumps(ds, di))
		}
		checkNoScratch(t, indexed)
		checkNoScratch(t, scan)
		checkTextMirror(t, indexed)
	}

	for i := 0; i < 4; i++ {
		rule := textDiffRule(rng)
		who := subscribers[rng.Intn(len(subscribers))]
		idi, csi, err := indexed.Subscribe(who, rule)
		if err != nil {
			continue // some drawn rules are invalid for the schema; skip in both
		}
		ids, css, err := scan.Subscribe(who, rule)
		if err != nil {
			t.Fatalf("ablation rejected rule the indexed engine accepted %q: %v", rule, err)
		}
		if idi != ids {
			t.Fatalf("subscription ids diverged: %d vs %d", idi, ids)
		}
		var bi, bs strings.Builder
		renderChangeset(&bi, csi)
		renderChangeset(&bs, css)
		if bi.String() != bs.String() {
			t.Fatalf("initial changeset for %q diverged:\n indexed:\n%s scan:\n%s", rule, bi.String(), bs.String())
		}
		subs = append(subs, idi)
	}

	const steps = 30
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 4: // register a batch of new or rewritten documents
			k := 1 + rng.Intn(3)
			var docs []*rdf.Document
			inBatch := map[string]bool{}
			for i := 0; i < k; i++ {
				d := textDiffDoc(rng, rng.Intn(10))
				if inBatch[d.URI] {
					continue
				}
				inBatch[d.URI] = true
				live[d.URI] = true
				docs = append(docs, d)
			}
			psi, err := indexed.RegisterDocuments(docs)
			if err != nil {
				t.Fatalf("step %d: indexed register: %v", step, err)
			}
			pss, err := scan.RegisterDocuments(docs)
			if err != nil {
				t.Fatalf("step %d: scan register: %v", step, err)
			}
			if ri, rs := renderPublishSet(psi), renderPublishSet(pss); ri != rs {
				t.Fatalf("step %d: publish sets diverged:\n indexed:\n%s\n scan:\n%s", step, ri, rs)
			}
		case r < 6 && len(live) > 0: // delete a document
			uri := pickDoc()
			delete(live, uri)
			psi, err := indexed.DeleteDocument(uri)
			if err != nil {
				t.Fatalf("step %d: indexed delete: %v", step, err)
			}
			pss, err := scan.DeleteDocument(uri)
			if err != nil {
				t.Fatalf("step %d: scan delete: %v", step, err)
			}
			if ri, rs := renderPublishSet(psi), renderPublishSet(pss); ri != rs {
				t.Fatalf("step %d: delete publish sets diverged:\n indexed:\n%s\n scan:\n%s", step, ri, rs)
			}
		case r < 8: // subscribe a fresh rule (exercises the index insert)
			rule := textDiffRule(rng)
			who := subscribers[rng.Intn(len(subscribers))]
			idi, csi, err := indexed.Subscribe(who, rule)
			if err != nil {
				continue
			}
			ids, css, err := scan.Subscribe(who, rule)
			if err != nil {
				t.Fatalf("step %d: ablation rejected %q: %v", step, rule, err)
			}
			if idi != ids {
				t.Fatalf("step %d: subscription ids diverged: %d vs %d", step, idi, ids)
			}
			var bi, bs strings.Builder
			renderChangeset(&bi, csi)
			renderChangeset(&bs, css)
			if bi.String() != bs.String() {
				t.Fatalf("step %d: initial changeset diverged for %q", step, rule)
			}
			subs = append(subs, idi)
		default: // unsubscribe (exercises the index sweep)
			if len(subs) == 0 {
				continue
			}
			i := rng.Intn(len(subs))
			id := subs[i]
			subs = append(subs[:i], subs[i+1:]...)
			if err := indexed.Unsubscribe(id); err != nil {
				t.Fatalf("step %d: indexed unsubscribe: %v", step, err)
			}
			if err := scan.Unsubscribe(id); err != nil {
				t.Fatalf("step %d: scan unsubscribe: %v", step, err)
			}
		}
		if step%5 == 4 {
			check(step, "periodic")
		}
	}
	check(steps, "final")

	// The two engines really took different mechanisms: the reference still
	// has no index, and the indexed engine ran atoms through its automata.
	if scan.text != nil {
		t.Fatal("reference engine grew a text index: the differential compared the index with itself")
	}
	if indexed.text.scans.Load() == 0 {
		t.Fatal("indexed engine never scanned an atom through the text index")
	}

	for _, id := range subs {
		mi, err := indexed.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := scan.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		ui := make([]string, len(mi))
		for i, r := range mi {
			ui[i] = r.URIRef
		}
		us := make([]string, len(ms))
		for i, r := range ms {
			us[i] = r.URIRef
		}
		if fmt.Sprint(ui) != fmt.Sprint(us) {
			t.Errorf("sub %d matches diverged:\n indexed %v\n scan    %v", id, ui, us)
		}
	}

	// Snapshots carry no index state and saving is deterministic: saving
	// twice, and saving again after a load, yield the same bytes. (Indexed
	// and scan snapshots are logically equivalent but not compared byte for
	// byte: RuleResults physical row order follows match-insertion order,
	// which can differ between the index's sorted per-atom emission and the
	// CON query's table-scan order; the reload probes below prove the
	// equivalence.)
	var snap1, snap2 bytes.Buffer
	if err := indexed.Save(&snap1); err != nil {
		t.Fatal(err)
	}
	if err := indexed.Save(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Error("saving the same indexed engine twice produced different bytes")
	}

	// Reload the indexed snapshot both with the index (rebuild from the
	// canonical table) and without it (ablation of a loaded snapshot).
	reIdx, err := LoadWithOptions(bytes.NewReader(snap1.Bytes()), paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTextMirror(t, reIdx)
	checkNoScratch(t, reIdx)
	var resaved bytes.Buffer
	if err := reIdx.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), snap1.Bytes()) {
		t.Error("save -> load -> save changed the snapshot bytes")
	}
	reScan, err := LoadWithOptions(bytes.NewReader(snap1.Bytes()), paperSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reScan.text = nil

	// One probe publish: the live indexed engine and both reloads must
	// produce the scan engine's publish set byte for byte.
	probe := textDiffDoc(rng, 11)
	psScan, err := scan.RegisterDocument(probe)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPublishSet(psScan)
	for name, e := range map[string]*Engine{"indexed": indexed, "indexed-reload": reIdx, "ablated-reload": reScan} {
		ps, err := e.RegisterDocument(probe)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPublishSet(ps); got != want {
			t.Errorf("%s diverged on the probe publish:\n scan:\n%s\n %s:\n%s", name, want, name, got)
		}
		checkNoScratch(t, e)
	}
}
