package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mdv/internal/rdf"
)

// Differential tests for partitioned triggering: an N-section engine must
// be observationally identical to the one-section reference (a trivially
// exact partition) — same publish sets (groups, changesets, member credits,
// byte for byte in the engine's deterministic order), same materialized
// matches, same filter-table state,
// same work counters, same snapshots — over randomized mixes of register,
// rewrite, delete, subscribe, and unsubscribe across every rule shape the
// decomposition produces (ANY, OID, EQ/NE/CON, numeric comparisons, PATH,
// JOIN, OR-splits). The partition-exactness argument lives in shard.go; this
// test enforces the (class, property) routing, the ANY-as-subject routing,
// and the shard-order merge.

var (
	shardDiffHosts  = []string{"pirates.uni-passau.de", "mdv.uni-passau.de", "a.example.org", "007", "grün.uni-passau.de", "PASSAU.DE"}
	shardDiffPorts  = []string{"80", "5874", "007", "0", "-3", "65535"}
	shardDiffInts   = []string{"0", "7", "007", "64", "92", "600", "1024"}
	shardDiffThemes = []string{"astronomy", "x-ray", "abc"}
	shardDiffOps    = []string{"=", "!=", "<", "<=", ">", ">="}
)

func shardDiffOp(rng *rand.Rand) string {
	return shardDiffOps[rng.Intn(len(shardDiffOps))]
}

// shardDiffRule draws one rule over the paper schema, covering all ten
// operator tables plus the join, path, and OR-split shapes. The contains
// cases deliberately include the empty constant (matches everything),
// multi-byte UTF-8 constants, and the bare-variable form `c contains 'x'`
// (matches the URIref; routed as (class, rdf.SubjectProperty) like the
// subject atoms that trigger it) — the text-index edge semantics.
func shardDiffRule(rng *rand.Rand) string {
	op := shardDiffOp(rng)
	switch rng.Intn(13) {
	case 0: // ANY (class-only)
		return `search CycleProvider c register c`
	case 1: // OID point rule
		return fmt.Sprintf(`search CycleProvider c register c where c = 'doc%d.rdf#host'`, rng.Intn(10))
	case 2: // string equality
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost = '%s'`,
			shardDiffHosts[rng.Intn(len(shardDiffHosts))])
	case 3: // string inequality
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost != '%s'`,
			shardDiffHosts[rng.Intn(len(shardDiffHosts))])
	case 4: // contains
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s'`,
			[]string{"passau", "00", "a", "example", "", "ü", "grün", "PASSAU"}[rng.Intn(8)])
	case 12: // bare-variable contains (matches the URIref)
		return fmt.Sprintf(`search CycleProvider c register c where c contains '%s'`,
			[]string{"doc", "rdf#host", "", "7"}[rng.Intn(4)])
	case 5: // numeric comparison on an integer property
		return fmt.Sprintf(`search CycleProvider c register c where c.serverPort %s %d`, op, rng.Intn(6000))
	case 6: // numeric comparison on the other class
		return fmt.Sprintf(`search ServerInformation s register s where s.memory %s %d`, op, rng.Intn(128))
	case 7: // PATH through a strong reference
		return fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.cpu %s %d`, op, rng.Intn(700))
	case 8: // explicit reference join
		return fmt.Sprintf(
			`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort %s %d`,
			op, rng.Intn(6000))
	case 9: // OR-split: several end rules per subscription
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverPort = %d or c.serverHost contains 'uni'`, rng.Intn(6000))
	case 10: // conjunction of two triggering rules
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverHost contains 'passau' and c.serverPort %s %d`,
			op, rng.Intn(6000))
	default: // set-valued property on a third class
		return fmt.Sprintf(`search DataProvider d register d where d.theme = '%s'`,
			shardDiffThemes[rng.Intn(len(shardDiffThemes))])
	}
}

// shardDiffDoc draws one document: a CycleProvider, usually with its
// ServerInformation (sometimes referenced cross-document or dangling), and
// occasionally a DataProvider with set-valued themes.
func shardDiffDoc(rng *rand.Rand, i int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(shardDiffHosts[rng.Intn(len(shardDiffHosts))]))
	host.Add("serverPort", rdf.Lit(shardDiffPorts[rng.Intn(len(shardDiffPorts))]))
	if rng.Intn(2) == 0 {
		host.Add("synthValue", rdf.Lit(shardDiffInts[rng.Intn(len(shardDiffInts))]))
	}
	switch rng.Intn(4) {
	case 0, 1: // local info resource
		host.Add("serverInformation", rdf.Ref(doc.URI+"#info"))
		info := doc.NewResource("info", "ServerInformation")
		info.Add("memory", rdf.Lit(shardDiffInts[rng.Intn(len(shardDiffInts))]))
		info.Add("cpu", rdf.Lit(shardDiffInts[rng.Intn(len(shardDiffInts))]))
	case 2: // cross-document (possibly dangling) reference
		host.Add("serverInformation", rdf.Ref(fmt.Sprintf("doc%d.rdf#info", rng.Intn(10))))
	}
	if rng.Intn(3) == 0 {
		dp := doc.NewResource("dp", "DataProvider")
		for _, th := range shardDiffThemes[:1+rng.Intn(len(shardDiffThemes))] {
			dp.Add("theme", rdf.Lit(th))
		}
		dp.Add("host", rdf.Ref(doc.URI+"#host"))
	}
	return doc
}

// renderChangeset writes a changeset verbatim — preserving the engine's
// emission order, so the comparison asserts determinism, not just set
// equality. Only MemberCredits needs sorting (it is a map).
func renderChangeset(b *strings.Builder, cs *Changeset) {
	if cs == nil {
		b.WriteString("  <nil>\n")
		return
	}
	for _, u := range cs.Upserts {
		fmt.Fprintf(b, "  up %s [%s] subs=%v", u.Resource.URIRef, u.Resource.Class, u.SubIDs)
		for _, p := range u.Resource.Props {
			fmt.Fprintf(b, " %s=%s", p.Name, p.Value.String())
		}
		for _, c := range u.Closure {
			fmt.Fprintf(b, " closure=%s", c.URIRef)
		}
		b.WriteByte('\n')
	}
	for _, r := range cs.Removals {
		fmt.Fprintf(b, "  rm %s sub=%d\n", r.URIRef, r.SubID)
	}
	for _, c := range cs.ClosureUpserts {
		fmt.Fprintf(b, "  closure-up %s\n", c.URIRef)
	}
	for _, f := range cs.ForcedDeletes {
		fmt.Fprintf(b, "  forced %s\n", f)
	}
	if cs.MemberCredits != nil {
		members := make([]string, 0, len(cs.MemberCredits))
		for m := range cs.MemberCredits {
			members = append(members, m)
		}
		sort.Strings(members)
		for _, m := range members {
			fmt.Fprintf(b, "  credits %s=%v\n", m, cs.MemberCredits[m])
		}
	}
}

// renderPublishSet canonicalizes a publish set: the delivery groups in the
// engine's order, each changeset verbatim.
func renderPublishSet(ps *PublishSet) string {
	if ps == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, g := range ps.Groups {
		fmt.Fprintf(&b, "group %v\n", g.Members)
		renderChangeset(&b, g.Changeset)
	}
	return b.String()
}

// checkShardMirror asserts the derived shard state: the union of every
// shard's filter tables equals the catalogue tables row for row, each row
// lives on exactly the shard the hash routes it to, and no shard leaks
// FilterData scratch between runs.
func checkShardMirror(t *testing.T, e *Engine) {
	t.Helper()
	n := len(e.shards.shards)
	for ti, table := range trigTableNames {
		cols := "rule_id, class, property, value"
		switch {
		case table == "FilterRulesANY":
			cols = "rule_id, class"
		case numericFilterTable(table):
			cols += ", num_value"
		}
		canon, err := e.db.Query(`SELECT ` + cols + ` FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, 0, canon.Len())
		for _, r := range canon.Data {
			want = append(want, fmt.Sprintf("%v", r))
		}
		var got []string
		for si, sh := range e.shards.shards {
			rows, err := sh.db.Query(`SELECT ` + cols + ` FROM ` + table)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows.Data {
				prop := rdf.SubjectProperty
				if ti != 0 {
					prop = r[2].Str
				}
				if home := shardIndexFor(n, r[1].Str, prop); home != si {
					t.Errorf("%s row %v found on shard %d, hash routes it to %d", table, r, si, home)
				}
				got = append(got, fmt.Sprintf("%v", r))
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("shard union of %s diverged from canonical table:\n got %v\nwant %v", table, got, want)
		}
	}
	for si, sh := range e.shards.shards {
		rows, err := sh.db.Query(`SELECT uri_reference FROM FilterData`)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 0 {
			t.Errorf("shard %d leaked %d FilterData rows after the run", si, rows.Len())
		}
	}
}

// maskShardStats clears the one counter that intentionally differs between
// one section and N; every other counter must match exactly (the partition
// preserves the triggering result multiset).
func maskShardStats(s Stats) Stats {
	s.ShardSectionsRun = 0
	return s
}

// TestShardedTriggeringDifferential drives an N-section engine and the
// one-section reference through identical randomized workloads and requires
// identical observable behavior at every step.
func TestShardedTriggeringDifferential(t *testing.T) {
	seeds := []int64{3, 17, 271, 4242, 90001}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, nShards := range []int{2, 3, 8} {
		for _, seed := range seeds {
			nShards, seed := nShards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", nShards, seed), func(t *testing.T) {
				runShardDifferential(t, nShards, seed)
			})
		}
	}
}

func runShardDifferential(t *testing.T, nShards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	serial, err := NewEngineWithOptions(paperSchema(), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewEngineWithOptions(paperSchema(), Options{Shards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.ShardCount() != nShards {
		t.Fatalf("ShardCount = %d, want %d", sharded.ShardCount(), nShards)
	}
	if serial.ShardCount() != 1 {
		t.Fatalf("reference engine reports %d shards, want 1", serial.ShardCount())
	}

	live := map[string]bool{} // registered document URIs
	var subs []int64          // live subscription IDs (identical on both)
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
		if gs, gh := maskShardStats(serial.Stats()), maskShardStats(sharded.Stats()); gs != gh {
			t.Fatalf("step %d (%s): stats diverged\n serial  %+v\n sharded %+v", step, what, gs, gh)
		}
		ds, dh := dumpFilterState(t, serial), dumpFilterState(t, sharded)
		if ds != dh {
			t.Fatalf("step %d (%s): filter state diverged:\n%s", step, what, diffDumps(ds, dh))
		}
		checkShardMirror(t, serial)
		checkShardMirror(t, sharded)
	}

	// Seed subscriptions so the first registrations already trigger.
	for i := 0; i < 4; i++ {
		rule := shardDiffRule(rng)
		who := subscribers[rng.Intn(len(subscribers))]
		ids, css, err := serial.Subscribe(who, rule)
		if err != nil {
			continue // some drawn rules are invalid for the schema; skip in both
		}
		idh, csh, err := sharded.Subscribe(who, rule)
		if err != nil {
			t.Fatalf("sharded rejected rule the serial engine accepted %q: %v", rule, err)
		}
		if ids != idh {
			t.Fatalf("subscription ids diverged: %d vs %d", ids, idh)
		}
		var bs, bh strings.Builder
		renderChangeset(&bs, css)
		renderChangeset(&bh, csh)
		if bs.String() != bh.String() {
			t.Fatalf("initial changeset for %q diverged:\n serial:\n%s sharded:\n%s", rule, bs.String(), bh.String())
		}
		subs = append(subs, ids)
	}

	const steps = 30
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 4: // register a batch of new or rewritten documents
			k := 1 + rng.Intn(3)
			var docs []*rdf.Document
			inBatch := map[string]bool{}
			for i := 0; i < k; i++ {
				d := shardDiffDoc(rng, rng.Intn(10))
				if inBatch[d.URI] {
					continue // a batch may not carry the same document twice
				}
				inBatch[d.URI] = true
				live[d.URI] = true
				docs = append(docs, d)
			}
			pss, err := serial.RegisterDocuments(docs)
			if err != nil {
				t.Fatalf("step %d: serial register: %v", step, err)
			}
			psh, err := sharded.RegisterDocuments(docs)
			if err != nil {
				t.Fatalf("step %d: sharded register: %v", step, err)
			}
			if rs, rh := renderPublishSet(pss), renderPublishSet(psh); rs != rh {
				t.Fatalf("step %d: publish sets diverged:\n serial:\n%s\n sharded:\n%s", step, rs, rh)
			}
		case r < 6 && len(live) > 0: // delete a document
			uri := pickDoc()
			delete(live, uri)
			pss, err := serial.DeleteDocument(uri)
			if err != nil {
				t.Fatalf("step %d: serial delete: %v", step, err)
			}
			psh, err := sharded.DeleteDocument(uri)
			if err != nil {
				t.Fatalf("step %d: sharded delete: %v", step, err)
			}
			if rs, rh := renderPublishSet(pss), renderPublishSet(psh); rs != rh {
				t.Fatalf("step %d: delete publish sets diverged:\n serial:\n%s\n sharded:\n%s", step, rs, rh)
			}
		case r < 8: // subscribe a fresh rule (exercises the shard dual-write)
			rule := shardDiffRule(rng)
			who := subscribers[rng.Intn(len(subscribers))]
			ids, css, err := serial.Subscribe(who, rule)
			if err != nil {
				continue
			}
			idh, csh, err := sharded.Subscribe(who, rule)
			if err != nil {
				t.Fatalf("step %d: sharded rejected %q: %v", step, rule, err)
			}
			if ids != idh {
				t.Fatalf("step %d: subscription ids diverged: %d vs %d", step, ids, idh)
			}
			var bs, bh strings.Builder
			renderChangeset(&bs, css)
			renderChangeset(&bh, csh)
			if bs.String() != bh.String() {
				t.Fatalf("step %d: initial changeset diverged for %q", step, rule)
			}
			subs = append(subs, ids)
		default: // unsubscribe (exercises the all-shard rule sweep)
			if len(subs) == 0 {
				continue
			}
			i := rng.Intn(len(subs))
			id := subs[i]
			subs = append(subs[:i], subs[i+1:]...)
			if err := serial.Unsubscribe(id); err != nil {
				t.Fatalf("step %d: serial unsubscribe: %v", step, err)
			}
			if err := sharded.Unsubscribe(id); err != nil {
				t.Fatalf("step %d: sharded unsubscribe: %v", step, err)
			}
		}
		if step%5 == 4 {
			check(step, "periodic")
		}
	}
	check(steps, "final")

	// Every live subscription materializes the same matches.
	for _, id := range subs {
		ms, err := serial.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		mh, err := sharded.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		us := make([]string, len(ms))
		for i, r := range ms {
			us[i] = r.URIRef
		}
		uh := make([]string, len(mh))
		for i, r := range mh {
			uh[i] = r.URIRef
		}
		if fmt.Sprint(us) != fmt.Sprint(uh) {
			t.Errorf("sub %d matches diverged:\n serial  %v\n sharded %v", id, us, uh)
		}
	}

	// Snapshots carry no shard state and saving is deterministic: saving the
	// sharded engine twice yields identical bytes. (The one-section engine's
	// snapshot is logically equivalent but not byte-identical — physical row
	// order in RuleResults follows match-insertion order, which is
	// operator-major within a section and shard-major across them; the
	// reload check below proves the equivalence.)
	var snapH, snapH2 bytes.Buffer
	if err := sharded.Save(&snapH); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Save(&snapH2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapH.Bytes(), snapH2.Bytes()) {
		t.Error("saving the same sharded engine twice produced different bytes")
	}

	// A snapshot loaded with sharding enabled rebuilds the shard mirror and
	// keeps producing identical publish sets.
	reloaded, err := LoadWithOptions(bytes.NewReader(snapH.Bytes()), paperSchema(), Options{Shards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	checkShardMirror(t, reloaded)
	probe := shardDiffDoc(rng, 11)
	pss, err := serial.RegisterDocument(probe)
	if err != nil {
		t.Fatal(err)
	}
	psr, err := reloaded.RegisterDocument(probe)
	if err != nil {
		t.Fatal(err)
	}
	if rs, rr := renderPublishSet(pss), renderPublishSet(psr); rs != rr {
		t.Errorf("reloaded sharded engine diverged on the probe publish:\n serial:\n%s\n reloaded:\n%s", rs, rr)
	}
}

// TestShardedEngineConcurrentPublishesAndReaders hammers one sharded engine
// with parallel writers and readers under -race: the shard fan-out must not
// introduce data races against the engine's RW-locked read surface, and the
// final state must equal a serial engine fed the same final documents.
func TestShardedEngineConcurrentPublishesAndReaders(t *testing.T) {
	e, err := NewEngineWithOptions(paperSchema(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewEngineWithOptions(paperSchema(), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rules := []string{
		`search CycleProvider c register c`,
		`search CycleProvider c register c where c.serverPort >= 0`,
		`search CycleProvider c register c where c.serverHost contains 'example'`,
		`search ServerInformation s register s where s.memory > 10`,
		`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort > 0`,
	}
	var subs []int64
	for _, r := range rules {
		id, _, err := e.Subscribe("lmr1", r)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := control.Subscribe("lmr1", r); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, id)
	}

	const writers = 4
	const docsPerWriter = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				doc := rdf.NewDocument(fmt.Sprintf("w%d-%d.rdf", w, i))
				cp := doc.NewResource("cp", "CycleProvider")
				cp.Add("serverHost", rdf.Lit("h.example.org"))
				cp.Add("serverPort", rdf.Lit(fmt.Sprint(i+1)))
				cp.Add("serverInformation", rdf.Ref(doc.URI+"#si"))
				si := doc.NewResource("si", "ServerInformation")
				si.Add("memory", rdf.Lit(fmt.Sprint(16*(i+1))))
				si.Add("cpu", rdf.Lit("600"))
				if _, err := e.RegisterDocument(doc); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Browse("CycleProvider", "example"); err != nil {
					t.Errorf("browse: %v", err)
					return
				}
				st := e.Stats()
				if st.ShardSectionsRun < st.ShardedFilterRuns {
					t.Errorf("stats torn: %d sections over %d sharded runs", st.ShardSectionsRun, st.ShardedFilterRuns)
					return
				}
				if _, err := e.MatchingResources(subs[0]); err != nil {
					t.Errorf("matches: %v", err)
					return
				}
				if _, err := e.Subscriptions(); err != nil {
					t.Errorf("subscriptions: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Feed the control engine the same documents serially; every
	// subscription must hold identical matches and the shard mirror must be
	// intact after the concurrent episode.
	for w := 0; w < writers; w++ {
		for i := 0; i < docsPerWriter; i++ {
			doc := rdf.NewDocument(fmt.Sprintf("w%d-%d.rdf", w, i))
			cp := doc.NewResource("cp", "CycleProvider")
			cp.Add("serverHost", rdf.Lit("h.example.org"))
			cp.Add("serverPort", rdf.Lit(fmt.Sprint(i+1)))
			cp.Add("serverInformation", rdf.Ref(doc.URI+"#si"))
			si := doc.NewResource("si", "ServerInformation")
			si.Add("memory", rdf.Lit(fmt.Sprint(16*(i+1))))
			si.Add("cpu", rdf.Lit("600"))
			if _, err := control.RegisterDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range subs {
		got, err := e.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.MatchingResources(id)
		if err != nil {
			t.Fatal(err)
		}
		gu := make([]string, len(got))
		for i, r := range got {
			gu[i] = r.URIRef
		}
		wu := make([]string, len(want))
		for i, r := range want {
			wu[i] = r.URIRef
		}
		if fmt.Sprint(gu) != fmt.Sprint(wu) {
			t.Errorf("sub %d: concurrent sharded matches %v, serial control %v", id, gu, wu)
		}
	}
	if st := e.Stats(); st.ShardedFilterRuns != st.FilterRuns || st.FilterRuns == 0 {
		t.Errorf("%d of %d filter runs went through the shard sections", st.ShardedFilterRuns, st.FilterRuns)
	}
	checkShardMirror(t, e)
}
