package core_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"mdv/internal/core"
	"mdv/internal/query"
	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// The soundness property of the whole filter pipeline: after any sequence
// of document registrations, updates, and deletions, the engine's
// materialized matches for every subscription equal a from-scratch
// evaluation of the subscription rule over the current metadata. This is
// the paper's implicit correctness claim for the incremental algorithm
// (§3.4/§3.5) checked by differential testing against a naive evaluator.

func soundnessSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "synthValue", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{
		Name: "serverInformation", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "cpu", Type: rdf.TypeInteger})
	return s
}

// randomRule draws one subscription rule.
func randomRule(rng *rand.Rand) string {
	hostDomains := []string{"uni-passau.de", "tum.de", "example.org"}
	switch rng.Intn(8) {
	case 0:
		return `search CycleProvider c register c`
	case 1:
		return fmt.Sprintf(`search CycleProvider c register c where c.serverPort %s %d`,
			randomOp(rng), rng.Intn(40))
	case 2:
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s'`,
			hostDomains[rng.Intn(len(hostDomains))])
	case 3:
		return fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.memory %s %d`,
			randomOp(rng), rng.Intn(40))
	case 4:
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverInformation.memory %s %d and c.serverInformation.cpu %s %d`,
			randomOp(rng), rng.Intn(40), randomOp(rng), rng.Intn(40))
	case 5:
		return fmt.Sprintf(`search CycleProvider c register c where c = 'doc%d.rdf#host'`, rng.Intn(12))
	case 6:
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverPort %s %d or c.serverInformation.cpu %s %d`,
			randomOp(rng), rng.Intn(40), randomOp(rng), rng.Intn(40))
	default:
		return fmt.Sprintf(
			`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort %s %d`,
			randomOp(rng), rng.Intn(40))
	}
}

func randomOp(rng *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
}

// randomDoc draws document i's content. References are sometimes
// cross-document (possibly dangling), which exercises the hardest part of
// the three-phase update handling: a join match whose support spans
// documents that change independently.
func randomDoc(rng *rand.Rand, i int) *rdf.Document {
	domains := []string{"uni-passau.de", "tum.de", "example.org"}
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("h%d.%s", i, domains[rng.Intn(len(domains))])))
	host.Add("serverPort", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	host.Add("synthValue", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	switch rng.Intn(5) {
	case 0: // no server information at all
	case 1: // cross-document reference (may dangle)
		host.Add("serverInformation", rdf.Ref(fmt.Sprintf("doc%d.rdf#info", rng.Intn(12))))
		info := doc.NewResource("info", "ServerInformation")
		info.Add("memory", rdf.Lit(fmt.Sprint(rng.Intn(40))))
		info.Add("cpu", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	default: // in-document reference, the Figure 1 shape
		host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
		info := doc.NewResource("info", "ServerInformation")
		info.Add("memory", rdf.Lit(fmt.Sprint(rng.Intn(40))))
		info.Add("cpu", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	}
	return doc
}

// reference evaluates a subscription rule from scratch over the current
// documents, using the query translator over a freshly built statement
// store.
type reference struct {
	schema *rdf.Schema
	docs   map[string]*rdf.Document
}

func (ref *reference) matches(t *testing.T, ruleText string) []string {
	t.Helper()
	db := sql.Open()
	for _, stmt := range []string{
		`CREATE TABLE Cache (uri_reference TEXT PRIMARY KEY, class TEXT NOT NULL, local BOOL NOT NULL)`,
		`CREATE TABLE CacheStatements (uri_reference TEXT NOT NULL, class TEXT NOT NULL,
			property TEXT NOT NULL, value TEXT NOT NULL, num_value FLOAT, is_ref BOOL NOT NULL)`,
		`CREATE INDEX idx_cstmt_uri ON CacheStatements (uri_reference, property)`,
		`CREATE INDEX idx_cstmt_cpv ON CacheStatements (class, property, value)`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, doc := range ref.docs {
		for _, a := range doc.Statements() {
			if a.Property == rdf.SubjectProperty {
				db.MustExec(`INSERT INTO Cache (uri_reference, class, local) VALUES (?, ?, FALSE)`,
					rdb.NewText(a.URIRef), rdb.NewText(a.Class))
			}
			db.MustExec(`INSERT INTO CacheStatements (uri_reference, class, property, value, num_value, is_ref)
				VALUES (?, ?, ?, ?, ?, ?)`,
				rdb.NewText(a.URIRef), rdb.NewText(a.Class), rdb.NewText(a.Property),
				rdb.NewText(a.Value), rdb.NumValue(a.Value), rdb.NewBool(a.IsRef))
		}
	}
	r, err := rules.Parse(ruleText)
	if err != nil {
		t.Fatal(err)
	}
	normalized, err := rules.Normalize(r, ref.schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	for _, nr := range normalized {
		text, params, err := query.Translate(nr, ref.schema)
		if err != nil {
			t.Fatal(err)
		}
		err = db.QueryFunc(text, params, func(row []rdb.Value) error {
			if uri := row[0].Str; !seen[uri] {
				seen[uri] = true
				out = append(out, uri)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(out)
	return out
}

func engineMatches(t *testing.T, e *core.Engine, subID int64) []string {
	t.Helper()
	rs, err := e.MatchingResources(subID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.URIRef
	}
	return out
}

// soundnessRun drives one randomized workload and checks, after every step,
// three oracles (check): each subscription's matches against the
// from-scratch reference, RuleResults against a fresh engine fed the same
// subscriptions and the current documents, and a per-subscriber cache model
// built only from the published changesets.
type soundnessRun struct {
	t      *testing.T
	schema *rdf.Schema
	e      *core.Engine
	ref    *reference
	subs   []soundnessSub
	models map[string]*cacheModel
}

type soundnessSub struct {
	id         int64
	subscriber string
	rule       string
}

func newSoundnessRun(t *testing.T, schema *rdf.Schema) *soundnessRun {
	e, err := core.NewEngine(schema)
	if err != nil {
		t.Fatal(err)
	}
	return &soundnessRun{t: t, schema: schema, e: e,
		ref:    &reference{schema: schema, docs: map[string]*rdf.Document{}},
		models: map[string]*cacheModel{}}
}

func (r *soundnessRun) model(subscriber string) *cacheModel {
	m := r.models[subscriber]
	if m == nil {
		m = &cacheModel{credits: map[string]map[int64]bool{}, content: map[string]string{}}
		r.models[subscriber] = m
	}
	return m
}

func (r *soundnessRun) subscribe(subscriber, rule string) {
	r.t.Helper()
	id, fill, err := r.e.Subscribe(subscriber, rule)
	if err != nil {
		r.t.Fatalf("subscribe %q: %v", rule, err)
	}
	r.model(subscriber).apply(subscriber, fill)
	r.subs = append(r.subs, soundnessSub{id: id, subscriber: subscriber, rule: rule})
}

// register re-registers documents (new or updated) as one batch.
func (r *soundnessRun) register(docs ...*rdf.Document) {
	r.t.Helper()
	for _, d := range docs {
		r.ref.docs[d.URI] = d
	}
	ps, err := r.e.RegisterDocuments(docs)
	if err != nil {
		r.t.Fatal(err)
	}
	r.publish(ps)
}

func (r *soundnessRun) delete(uri string) {
	r.t.Helper()
	delete(r.ref.docs, uri)
	ps, err := r.e.DeleteDocument(uri)
	if err != nil {
		r.t.Fatal(err)
	}
	r.publish(ps)
}

func (r *soundnessRun) publish(ps *core.PublishSet) {
	for _, g := range ps.Groups {
		for _, member := range g.Members {
			r.model(member).apply(member, g.Changeset)
		}
	}
}

func (r *soundnessRun) check(step string) {
	t := r.t
	t.Helper()
	fingerprints := map[string]string{}
	for _, d := range r.ref.docs {
		for _, res := range d.Resources {
			fingerprints[res.URIRef] = res.Fingerprint()
		}
	}
	for _, s := range r.subs {
		want := r.ref.matches(t, s.rule)
		if got := engineMatches(t, r.e, s.id); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: rule %q:\n engine %v\n naive  %v", step, s.rule, got, want)
		}
		m := r.model(s.subscriber)
		cached := m.credited(s.id)
		if strings.Join(cached, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: rule %q: the changesets leave %s caching\n %v\nwant\n %v",
				step, s.rule, s.subscriber, cached, want)
		}
		for _, uri := range cached {
			if m.content[uri] != fingerprints[uri] {
				t.Fatalf("%s: %s caches %s as\n %q\nthe current version is\n %q",
					step, s.subscriber, uri, m.content[uri], fingerprints[uri])
			}
		}
	}
	fresh, err := core.NewEngine(r.schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.subs {
		if _, _, err := fresh.Subscribe(s.subscriber, s.rule); err != nil {
			t.Fatal(err)
		}
	}
	var docs []*rdf.Document
	for _, uri := range sortedKeys(r.ref.docs) {
		docs = append(docs, r.ref.docs[uri])
	}
	if len(docs) > 0 {
		if _, err := fresh.RegisterDocuments(docs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ruleResults(t, r.e), ruleResults(t, fresh); got != want {
		t.Fatalf("%s: RuleResults differ from a fresh engine's:\n got:\n%s\nwant:\n%s", step, got, want)
	}
}

// ruleResults renders an engine's RuleResults keyed by atomic rule text, with
// every rule id inside a join rule's text replaced by that rule's own text,
// so engines whose ids differ compare equal.
func ruleResults(t *testing.T, e *core.Engine) string {
	t.Helper()
	rows, err := e.DB().Query(`SELECT rule_id, rule_text FROM AtomicRules`)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{}
	for _, row := range rows.Data {
		texts[fmt.Sprint(row[0].Int)] = row[1].Str
	}
	idRef := regexp.MustCompile(`\bR(\d+)\b`)
	var expand func(text string) string
	expand = func(text string) string {
		return idRef.ReplaceAllStringFunc(text, func(m string) string {
			return "(" + expand(texts[m[1:]]) + ")"
		})
	}
	rows, err = e.DB().Query(`SELECT rule_id, uri_reference FROM RuleResults`)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows.Data {
		out = append(out, expand(texts[fmt.Sprint(row[0].Int)])+" -> "+row[1].Str)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// cacheModel is what one subscriber holds after applying every changeset
// published to it, the way an LMR's repository applies them: credited
// subscriptions per resource, and each cached resource's content.
type cacheModel struct {
	credits map[string]map[int64]bool
	content map[string]string // uri -> fingerprint
}

func (m *cacheModel) apply(subscriber string, cs *core.Changeset) {
	if cs == nil {
		return
	}
	var owned map[int64]bool
	if cs.MemberCredits != nil {
		owned = map[int64]bool{}
		for _, id := range cs.MemberCredits[subscriber] {
			owned[id] = true
		}
	}
	mine := func(id int64) bool { return owned == nil || owned[id] }
	for _, up := range cs.Upserts {
		m.content[up.Resource.URIRef] = up.Resource.Fingerprint()
		for _, res := range up.Closure {
			m.content[res.URIRef] = res.Fingerprint()
		}
		for _, id := range up.SubIDs {
			if mine(id) {
				if m.credits[up.Resource.URIRef] == nil {
					m.credits[up.Resource.URIRef] = map[int64]bool{}
				}
				m.credits[up.Resource.URIRef][id] = true
			}
		}
	}
	for _, res := range cs.ClosureUpserts {
		if _, cached := m.content[res.URIRef]; cached {
			m.content[res.URIRef] = res.Fingerprint()
		}
	}
	for _, rm := range cs.Removals {
		if mine(rm.SubID) {
			delete(m.credits[rm.URIRef], rm.SubID)
		}
	}
	for _, uri := range cs.ForcedDeletes {
		delete(m.credits, uri)
		delete(m.content, uri)
	}
}

// credited lists the resources the model caches for one subscription.
func (m *cacheModel) credited(subID int64) []string {
	var out []string
	for uri, ids := range m.credits {
		if ids[subID] {
			out = append(out, uri)
		}
	}
	sort.Strings(out)
	return out
}

// TestFilterSoundnessRandomized drives randomized workloads of whole-document
// registrations, replacements and deletions through the engine and checks
// the three oracles after every mutation batch.
func TestFilterSoundnessRandomized(t *testing.T) {
	seeds := []int64{1, 7, 42, 99, 1234, 77777}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newSoundnessRun(t, soundnessSchema())
			// Random subscriptions (registered before and between data).
			for i := 0; i < 8; i++ {
				r.subscribe("lmr", randomRule(rng))
			}

			nextDoc := 0
			for step := 0; step < 20; step++ {
				switch op := rng.Intn(10); {
				case op < 5 || len(r.ref.docs) == 0: // register a fresh batch
					n := 1 + rng.Intn(3)
					var docs []*rdf.Document
					for i := 0; i < n; i++ {
						docs = append(docs, randomDoc(rng, nextDoc))
						nextDoc++
					}
					r.register(docs...)
					r.check(fmt.Sprintf("step %d register %d", step, n))
				case op < 8: // update an existing document
					uris := sortedKeys(r.ref.docs)
					uri := uris[rng.Intn(len(uris))]
					var num int
					fmt.Sscanf(uri, "doc%d.rdf", &num)
					r.register(randomDoc(rng, num))
					r.check(fmt.Sprintf("step %d update %s", step, uri))
				case op < 9: // delete a document
					uris := sortedKeys(r.ref.docs)
					uri := uris[rng.Intn(len(uris))]
					r.delete(uri)
					r.check(fmt.Sprintf("step %d delete %s", step, uri))
				default: // register another subscription mid-stream
					r.subscribe("lmr", randomRule(rng))
					r.check(fmt.Sprintf("step %d subscribe", step))
				}
			}
		})
	}
}

// partialSchema is soundnessSchema with set values: a host lists themes and
// may reference several ServerInformation resources.
func partialSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "synthValue", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "theme", Type: rdf.TypeString, SetValued: true})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverInformation", Type: rdf.TypeResource,
		RefClass: "ServerInformation", RefKind: rdf.StrongRef, SetValued: true})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "cpu", Type: rdf.TypeInteger})
	return s
}

// randomPartialRule draws a rule of randomRule's kinds or one that reads the
// set values, compares two hosts' values, or compares two of one host's. A
// theme != rule matches through several values of one host, so removing one
// of them retracts a match another value still supports.
func randomPartialRule(rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf(`search CycleProvider c register c where c.theme? = 't%d'`, rng.Intn(4))
	case 1:
		return `search CycleProvider c register c where c.theme? contains '1'`
	case 4:
		return fmt.Sprintf(`search CycleProvider c register c where c.theme? != 't%d'`, rng.Intn(4))
	case 2:
		return fmt.Sprintf(
			`search CycleProvider c, CycleProvider d register c where c.synthValue = d.synthValue and d.serverPort %s %d`,
			randomOp(rng), rng.Intn(40))
	case 3:
		return `search CycleProvider c register c where c.serverPort < c.synthValue`
	default:
		return randomRule(rng)
	}
}

// partialDoc draws document i: a host with themes and references, usually
// to ServerInformation resources that other hosts reference too.
func partialDoc(rng *rand.Rand, i int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("h%d.%s", i, []string{"uni-passau.de", "tum.de"}[rng.Intn(2)])))
	host.Add("serverPort", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	host.Add("synthValue", rdf.Lit(fmt.Sprint(rng.Intn(6))))
	for n := rng.Intn(3); n > 0; n-- {
		host.Add("theme", rdf.Lit(fmt.Sprintf("t%d", rng.Intn(4))))
	}
	for n := rng.Intn(3); n > 0; n-- {
		host.Add("serverInformation", rdf.Ref(infoTarget(rng, doc)))
	}
	if rng.Intn(3) > 0 {
		addInfo(rng, doc)
	}
	return doc
}

// infoTarget picks a reference target: this document's info or one of the
// first three documents' infos, which many hosts share (and which may not
// exist).
func infoTarget(rng *rand.Rand, doc *rdf.Document) string {
	if rng.Intn(3) == 0 {
		return doc.QualifyID("info")
	}
	return fmt.Sprintf("doc%d.rdf#info", rng.Intn(3))
}

func addInfo(rng *rand.Rand, doc *rdf.Document) {
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(fmt.Sprint(rng.Intn(40))))
	info.Add("cpu", rdf.Lit(fmt.Sprint(rng.Intn(40))))
}

// mutate returns a copy of doc with one partial change and names it.
func mutate(rng *rand.Rand, doc *rdf.Document) (*rdf.Document, string) {
	d := doc.Clone()
	host, _ := d.Find(d.QualifyID("host"))
	info, hasInfo := d.Find(d.QualifyID("info"))
	switch rng.Intn(7) {
	case 0:
		if hasInfo && rng.Intn(2) == 0 {
			info.Set([]string{"memory", "cpu"}[rng.Intn(2)], rdf.Lit(fmt.Sprint(rng.Intn(40))))
			return d, "info literal"
		}
		switch rng.Intn(3) {
		case 0:
			host.Set("serverPort", rdf.Lit(fmt.Sprint(rng.Intn(40))))
		case 1:
			host.Set("synthValue", rdf.Lit(fmt.Sprint(rng.Intn(6))))
		default:
			host.Set("serverHost", rdf.Lit(fmt.Sprintf("x%d.%s", rng.Intn(9), []string{"uni-passau.de", "tum.de"}[rng.Intn(2)])))
		}
		return d, "host literal"
	case 1:
		host.Add("theme", rdf.Lit(fmt.Sprintf("t%d", rng.Intn(4))))
		return d, "set value added"
	case 2:
		if !removeOne(rng, host, "theme") {
			host.Add("theme", rdf.Lit("t1"))
		}
		return d, "set value removed"
	case 3:
		removeAll(host, "serverInformation")
		host.Add("serverInformation", rdf.Ref(infoTarget(rng, d)))
		return d, "reference re-pointed"
	case 4:
		if rng.Intn(2) == 0 || !removeOne(rng, host, "serverInformation") {
			host.Add("serverInformation", rdf.Ref(infoTarget(rng, d)))
		}
		return d, "reference set changed"
	case 5:
		// A lexical variant of a number: 7 -> 07 -> 007.
		target, prop := host, []string{"serverPort", "synthValue"}[rng.Intn(2)]
		if hasInfo && rng.Intn(2) == 0 {
			target, prop = info, "memory"
		}
		v, _ := target.Get(prop)
		target.Set(prop, rdf.Lit("0"+v.String()))
		return d, "lexical variant"
	default:
		if hasInfo {
			d.Resources = slices.DeleteFunc(d.Resources, func(r *rdf.Resource) bool { return r == info })
			return d, "resource dropped"
		}
		addInfo(rng, d)
		return d, "resource added"
	}
}

func removeOne(rng *rand.Rand, r *rdf.Resource, name string) bool {
	var at []int
	for i, p := range r.Props {
		if p.Name == name {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return false
	}
	i := at[rng.Intn(len(at))]
	r.Props = append(r.Props[:i:i], r.Props[i+1:]...)
	return true
}

func removeAll(r *rdf.Resource, name string) {
	r.Props = slices.DeleteFunc(r.Props, func(p rdf.Property) bool { return p.Name == name })
}

// TestFilterSoundnessPartialUpdates drives partial updates — a literal
// changed, a set value added or removed, a reference re-pointed, a lexical
// variant, a resource added to or dropped from a document — over hosts that
// share ServerInformation resources, and checks the three oracles after
// every step. Subscriptions are split over two subscribers so interest
// groups share changesets.
func TestFilterSoundnessPartialUpdates(t *testing.T) {
	seeds := []int64{3, 11, 2024, 31337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newSoundnessRun(t, partialSchema())
			subscriber := func() string { return []string{"lmr1", "lmr2"}[rng.Intn(2)] }
			for i := 0; i < 10; i++ {
				r.subscribe(subscriber(), randomPartialRule(rng))
			}
			nextDoc := 0
			var docs []*rdf.Document
			for ; nextDoc < 6; nextDoc++ {
				docs = append(docs, partialDoc(rng, nextDoc))
			}
			r.register(docs...)
			r.check("initial registration")
			for step := 0; step < 30; step++ {
				uris := sortedKeys(r.ref.docs)
				switch op := rng.Intn(20); {
				case op < 13 && len(uris) > 0: // one partial update
					uri := uris[rng.Intn(len(uris))]
					d, what := mutate(rng, r.ref.docs[uri])
					r.register(d)
					r.check(fmt.Sprintf("step %d %s: %s", step, uri, what))
				case op < 15 && len(uris) > 1: // two partial updates in one batch
					a, b := rng.Intn(len(uris)), rng.Intn(len(uris)-1)
					if b >= a {
						b++
					}
					da, wa := mutate(rng, r.ref.docs[uris[a]])
					db, wb := mutate(rng, r.ref.docs[uris[b]])
					r.register(da, db)
					r.check(fmt.Sprintf("step %d batch %s: %s, %s: %s", step, uris[a], wa, uris[b], wb))
				case op < 17: // a new document
					r.register(partialDoc(rng, nextDoc))
					nextDoc++
					r.check(fmt.Sprintf("step %d register", step))
				case op < 18 && len(uris) > 0:
					uri := uris[rng.Intn(len(uris))]
					r.delete(uri)
					r.check(fmt.Sprintf("step %d delete %s", step, uri))
				default:
					r.subscribe(subscriber(), randomPartialRule(rng))
					r.check(fmt.Sprintf("step %d subscribe", step))
				}
			}
		})
	}
}

func sortedKeys(m map[string]*rdf.Document) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
