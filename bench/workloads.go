package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mdv/internal/rdf"
	"mdv/internal/workload"
)

// batchSize is the closed phase's registration batch (bulk catalogue load).
const batchSize = 16

// payloadURI is the shared strong-closure resource of fanout_closure.
const payloadURI = "blob.rdf#data"

// spec is one named workload: a rule base, a document set, the LMRs that
// subscribe, and the literal open-phase rates. Sizes and rates are the same
// on every commit; only the seed varies the inputs.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// ruleTypes and perType define the rule base: perType rules of each
	// type, subscribed in the order (i, type).
	ruleTypes []workload.RuleType
	perType   int
	// matchPercent is the share of COMP rules every document matches.
	matchPercent float64
	docs         int
	lmrs         int
	// groups is the number of interest groups: rule k is subscribed by every
	// LMR j with j%groups == k%groups. groups == lmrs gives each LMR
	// alternate rules of its own; fewer groups make LMRs share rule sets, so
	// the MDP coalesces their deliveries.
	groups int
	// payload is the size of the shared Payload resource every document
	// strong-references (0 = none).
	payload int
	// regRate and queryRate are the open phase's fixed schedules, in
	// operations per second; queryRate 0 asks queries back-to-back instead.
	regRate   int
	queryRate int
	// shapes is the query mix the query connection cycles through.
	shapes []string
}

// allShapes is the full query mix; pointOnly is the light trickle the three
// update workloads run beside their updates. The LMR evaluates a path query
// in time quadratic in its cache (565 ms at 800 cached documents on the
// sizing box) and holds the cache's read lock meanwhile, so the full mix
// would swamp a workload meant to isolate the MDP's filter or the fan-out.
var (
	allShapes = []string{"point", "path", "contains"}
	pointOnly = []string{"point"}
)

// workloads are the four committed workloads. Rule bases are smaller than
// ISSUE 11 sketched because one run, with its three set-ups, has to fit the
// driver's time cap; see README.md "Sizing".
var workloads = []spec{
	{
		name: "selective_stream",
		why: "many rules, few matches (4 per doc): core triggering and join fixpoint dominate, changesets are tiny; " +
			"3200 rules, 800 docs, 2 LMRs; open: 25 docs/s beside 25 point queries/s",
		ruleTypes: []workload.RuleType{workload.OID, workload.PATH, workload.JOIN, workload.TEXT},
		perType:   800, docs: 800, lmrs: 2, groups: 2, regRate: 25, queryRate: 25, shapes: pointOnly,
	},
	{
		name: "comp_broad",
		why: "few rules, broad matches (100 per doc): core materialisation and changeset credit lists dominate, " +
			"triggering is one range probe; 1000 COMP rules, 128 docs, 1 LMR; open: 25 docs/s, 25 point queries/s",
		ruleTypes: []workload.RuleType{workload.COMP}, matchPercent: 0.10,
		perType: 1000, docs: 128, lmrs: 1, groups: 1, regRate: 25, queryRate: 25, shapes: pointOnly,
	},
	{
		name: "fanout_closure",
		why: "the filter does nothing; changeset build, WAL bytes, encode, wire, decode, LMR apply dominate: 16 rules, " +
			"16 docs with a 64 KiB strong closure, 8 LMRs in 2 groups; open: 50 docs/s, 25 point queries/s",
		ruleTypes: []workload.RuleType{workload.PATH},
		perType:   16, docs: 16, lmrs: 8, groups: 2, payload: 64 << 10, regRate: 50, queryRate: 25, shapes: pointOnly,
	},
	{
		name: "query_beside_updates",
		why: "reads beside writes on one cache: 2000 rules, 200 docs, 2 LMRs; open: point, path and contains queries " +
			"back-to-back beside 25 docs/s; a longer cache-lock hold or slower query moves one up, one down",
		ruleTypes: []workload.RuleType{workload.OID, workload.PATH, workload.JOIN, workload.TEXT},
		perType:   500, docs: 200, lmrs: 2, groups: 2, regRate: 25, queryRate: 0, shapes: allShapes,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// schema is the workload schema, plus the Payload class reached over a
// strong reference when the workload carries a closure payload (the schema
// of cmd/mdvbench's fan-out figure).
func (s spec) schema() *rdf.Schema {
	sc := workload.Schema()
	if s.payload > 0 {
		sc.MustAddProperty("CycleProvider", rdf.PropertyDef{
			Name: "blob", Type: rdf.TypeResource, RefClass: "Payload", RefKind: rdf.StrongRef})
		sc.MustAddProperty("Payload", rdf.PropertyDef{Name: "data", Type: rdf.TypeString})
	}
	return sc
}

// ruleCount is the size of the rule base.
func (s spec) ruleCount() int { return s.perType * len(s.ruleTypes) }

// rule returns rule k of the base, in subscription order: k = i*types + t.
func (s spec) rule(k int) string {
	t := s.ruleTypes[k%len(s.ruleTypes)]
	g := workload.Generator{Type: t, RuleBase: s.perType, MatchPercent: s.matchPercent}
	return g.Rule(k / len(s.ruleTypes))
}

// owners lists the LMRs that subscribe rule k.
func (s spec) owners(k int) []int {
	var out []int
	for j := k % s.groups; j < s.lmrs; j += s.groups {
		out = append(out, j)
	}
	return out
}

// matches reports whether document d matches rule k: the generator's
// pairing invariants (workload.Generator) restated as the oracle's model.
func (s spec) matches(d, k int) bool {
	i := k / len(s.ruleTypes)
	if s.ruleTypes[k%len(s.ruleTypes)] == workload.COMP {
		return i < s.synthValue()
	}
	return i == d
}

func (s spec) synthValue() int { return int(float64(s.perType) * s.matchPercent) }

// expectedLMRs lists, ascending, the LMRs whose caches must hold document d.
func (s spec) expectedLMRs(d int) []int {
	hit := make([]bool, s.lmrs)
	for k := 0; k < s.ruleCount(); k++ {
		if s.matches(d, k) {
			for _, j := range s.owners(k) {
				hit[j] = true
			}
		}
	}
	var out []int
	for j, h := range hit {
		if h {
			out = append(out, j)
		}
	}
	return out
}

// docURI and hostURI name document d and its CycleProvider resource.
func docURI(d int) string  { return fmt.Sprintf("doc%d.rdf", d) }
func hostURI(d int) string { return docURI(d) + "#host" }

// needle is the fixed-width token workload.Generator embeds in TEXT
// document d's serverHost.
func needle(d int) string { return fmt.Sprintf("k%06dq", d) }

// document builds version v of document d: the TEXT-generator document
// (whose host embeds needle d, so all five rule types pair with it), with
// serverPort carrying the version so every re-registration is an update.
func (s spec) document(d, version int) *rdf.Document {
	doc := workload.Generator{Type: workload.TEXT, RuleBase: s.perType}.Document(d)
	host := doc.Resources[0]
	host.Set("serverPort", rdf.Lit(strconv.Itoa(version)))
	host.Set("synthValue", rdf.Lit(strconv.Itoa(s.synthValue())))
	if s.payload > 0 {
		host.Add("blob", rdf.Ref(payloadURI))
	}
	return doc
}

// payloadDocument is the shared closure resource, registered once.
func (s spec) payloadDocument() *rdf.Document {
	blob := rdf.NewDocument("blob.rdf")
	blob.NewResource("data", "Payload").Add("data", rdf.Lit(strings.Repeat("x", s.payload)))
	return blob
}

// inputs is the seeded part of a run: the order documents are updated in,
// the version numbers they carry, and the queries asked.
type inputs struct {
	order   []int // permutation of the documents; updates cycle through it
	next    int   // position in order
	version int   // last version handed out
	rng     *rand.Rand
}

func newInputs(s spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	return &inputs{order: rng.Perm(s.docs), version: 1000 + rng.Intn(1_000_000), rng: rng}
}

// nextDocs returns the next n documents of the seeded update order.
func (in *inputs) nextDocs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = in.order[in.next%len(in.order)]
		in.next++
	}
	return out
}

// nextVersion hands out a version no document has carried yet.
func (in *inputs) nextVersion() int {
	in.version++
	return in.version
}

// question is one generated query with the URI references it must return.
type question struct {
	shape string
	text  string
	want  []string
}

// nextQuery builds query k of a mix cycling through shapes, against the LMR
// that caches the documents in cached (ascending): a point lookup by URI, a
// path equality, or a substring search whose needle prefix covers up to ten
// documents.
func (in *inputs) nextQuery(k int, shapes []string, cached []int) question {
	d := cached[in.rng.Intn(len(cached))]
	switch shape := shapes[k%len(shapes)]; shape {
	case "point":
		return question{shape, fmt.Sprintf(`search CycleProvider c register c where c = '%s'`, hostURI(d)),
			[]string{hostURI(d)}}
	case "path":
		return question{shape, fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.memory = %d`, d),
			[]string{hostURI(d)}}
	default:
		prefix := needle(d)[:6] // k + five digits: documents 10*(d/10) .. 10*(d/10)+9
		var want []string
		for _, c := range cached {
			if c/10 == d/10 {
				want = append(want, hostURI(c))
			}
		}
		return question{shape, fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s'`, prefix), want}
	}
}
