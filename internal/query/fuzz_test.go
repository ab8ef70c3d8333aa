package query

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/rules"
)

// fuzzMaxVars bounds the variables of a fuzzed query: a query with no
// predicate linking its variables is a cross product, whose size grows as
// the cache size to their number.
const fuzzMaxVars = 4

// fuzzCache is the small fixed cache FuzzQuery evaluates against: two
// providers and two server informations holding the numeric edge cases.
func fuzzCache(f *testing.F) *repository.Repository {
	repo, err := repository.New("fuzz", diffSchema())
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []struct{ host, port, load, memory, speed string }{
		{"h.uni-passau.de", "007", "1e2", "64", "NaN"},
		{"tum.de", "9007199254740993", "-0", "7", "Inf"},
	} {
		doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
		host := doc.NewResource("host", "CycleProvider")
		host.Add("serverHost", rdf.Lit(v.host))
		host.Add("serverPort", rdf.Lit(v.port))
		host.Add("load", rdf.Lit(v.load))
		host.Add("ports", rdf.Lit(v.port))
		host.Add("ports", rdf.Lit("7"))
		host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
		info := doc.NewResource("info", "ServerInformation")
		info.Add("memory", rdf.Lit(v.memory))
		info.Add("speed", rdf.Lit(v.speed))
		info.Add("label", rdf.Lit(v.host))
		if err := repo.RegisterLocalDocument(doc); err != nil {
			f.Fatal(err)
		}
	}
	return repo
}

// FuzzQuery takes arbitrary text through the query path: rules.Parse,
// Normalize, Translate and evaluation against a small fixed cache. It must
// never panic; a query that parses and normalizes must translate to SQL
// that rdb/sql accepts, and must return what the CAST-and-scan oracle
// returns. Seeds are the rules of testdata/rules.mdv, the translator's shape
// cases and the differential's query shapes. Run it with
//
//	go test -run '^$' -fuzz '^FuzzQuery$' -fuzztime 30s ./internal/query
func FuzzQuery(f *testing.F) {
	rulesFile, err := os.Open("../../testdata/rules.mdv")
	if err != nil {
		f.Fatal(err)
	}
	defer rulesFile.Close()
	sc := bufio.NewScanner(rulesFile)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			f.Add(line)
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	for _, src := range []string{
		`search CycleProvider c register c`,
		`search CycleProvider c register c where c.serverPort = 80`,
		`search CycleProvider c register c where c.serverHost contains 'de'`,
		`search CycleProvider c register c where c = 'doc0.rdf#host'`,
		`search CycleProvider c, ServerInformation s register c where c.serverInformation = s and s.memory > 64`,
		`search CycleProvider c register c where c.ports? = 7 or c.load <= 100.0`,
	} {
		f.Add(src)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(randomDiffQuery(rng))
	}

	schema := diffSchema()
	repo := fuzzCache(f)
	ev := NewEvaluator(repo.DB(), schema)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := rules.Parse(src)
		if err != nil || len(q.Search) > fuzzMaxVars {
			return
		}
		if _, err := rules.Normalize(q, schema, nil); err != nil {
			return
		}
		want, err := urisOf(repo.DB(), schema, src, translateCast)
		if err != nil {
			t.Fatalf("%q: oracle: %v", src, err)
		}
		rs, err := ev.Evaluate(src)
		if err != nil {
			t.Fatalf("%q parses and normalizes but does not evaluate: %v", src, err)
		}
		got := make([]string, len(rs))
		for i, r := range rs {
			got[i] = r.URIRef
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%q: typed %v, cast %v", src, got, want)
		}
	})
}
