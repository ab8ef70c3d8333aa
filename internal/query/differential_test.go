package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/rules"
)

// translateCast is the translator before the cache was typed, kept verbatim
// as the differential's oracle: every numeric comparison CASTs the
// string-stored value of each row it scans, and every Cache alias is listed
// before any CacheStatements alias.
func translateCast(nr *rules.NormalRule, schema *rdf.Schema) (string, []rdb.Value, error) {
	var from []string
	var where []string
	var params []rdb.Value

	// One Cache anchor per variable.
	anchor := map[string]string{}
	for i, b := range nr.Search {
		alias := fmt.Sprintf("r%d", i)
		anchor[b.Var] = alias
		from = append(from, "Cache "+alias)
		where = append(where, alias+".class = ?")
		params = append(params, rdb.NewText(b.Extension))
	}

	// One CacheStatements alias per property access.
	nProps := 0
	propAlias := func(v, prop string) string {
		nProps++
		alias := fmt.Sprintf("p%d", nProps)
		from = append(from, "CacheStatements "+alias)
		where = append(where,
			alias+".uri_reference = "+anchor[v]+".uri_reference",
			alias+".property = ?")
		params = append(params, rdb.NewText(prop))
		return alias + ".value"
	}

	// operandSQL renders one operand, emitting joins as needed. Constant
	// parameters are deferred: their ? appears in the comparison condition,
	// which is appended after any property-join conditions, so the caller
	// appends them to params only once the condition itself is appended.
	var deferred []rdb.Value
	operandSQL := func(o rules.Operand) (string, bool, error) {
		switch {
		case o.Kind == rules.OperandConst:
			deferred = append(deferred, rdb.NewText(o.Const.Lexical()))
			return "?", o.Const.Kind != rules.ConstString, nil
		case len(o.Path) == 0:
			return anchor[o.Var] + ".uri_reference", false, nil
		default:
			step := o.Path[0]
			numeric := false
			if b, ok := nr.Binding(o.Var); ok {
				if c, ok := schema.Class(b.Extension); ok {
					if def, ok := c.Property(step.Property); ok {
						numeric = def.Type == rdf.TypeInteger || def.Type == rdf.TypeFloat
					}
				}
			}
			return propAlias(o.Var, step.Property), numeric, nil
		}
	}

	for _, p := range nr.Where {
		deferred = deferred[:0]
		lhs, lNum, err := operandSQL(p.Left)
		if err != nil {
			return "", nil, err
		}
		rhs, rNum, err := operandSQL(p.Right)
		if err != nil {
			return "", nil, err
		}
		var cond string
		switch p.Op {
		case rules.OpContains:
			cond = lhs + " CONTAINS " + rhs
		case rules.OpLt, rules.OpLe, rules.OpGt, rules.OpGe:
			cond = "CAST(" + lhs + " AS FLOAT) " + p.Op.String() + " CAST(" + rhs + " AS FLOAT)"
		default: // = and !=
			if lNum && rNum {
				cond = "CAST(" + lhs + " AS FLOAT) " + p.Op.String() + " CAST(" + rhs + " AS FLOAT)"
			} else {
				cond = lhs + " " + p.Op.String() + " " + rhs
			}
		}
		where = append(where, cond)
		params = append(params, deferred...)
	}

	regAnchor, ok := anchor[nr.Register]
	if !ok {
		return "", nil, fmt.Errorf("query: register variable %q unbound", nr.Register)
	}
	text := "SELECT DISTINCT " + regAnchor + ".uri_reference FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	return text, params, nil
}

// diffSchema has an integer, a float and a string property on each side of
// a strong reference, and a set-valued integer.
func diffSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "load", Type: rdf.TypeFloat})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "ports", Type: rdf.TypeInteger, SetValued: true})
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{
		Name: "serverInformation", Type: rdf.TypeResource, RefClass: "ServerInformation", RefKind: rdf.StrongRef})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "memory", Type: rdf.TypeInteger})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "speed", Type: rdf.TypeFloat})
	s.MustAddProperty("ServerInformation", rdf.PropertyDef{Name: "label", Type: rdf.TypeString})
	return s
}

// Value pools. The numeric ones hold the typed-index edge cases: one number
// in several lexical forms (007, 7, +7, 7.0, 1e2 against 100), signed zero,
// 2^53 and 2^53+1 (equal as FLOATs), NaN and the infinities. The string
// pool holds numerals too, since a string compares by its lexical form.
var (
	diffInts    = []string{"0", "-0", "7", "007", "+7", "-5", "64", "100", "1024", "9007199254740992", "9007199254740993"}
	diffFloats  = []string{"0", "-0", "7", "7.0", "2.5", "1e2", "100", "0.1", "-5", "NaN", "Inf", "-Inf", "9007199254740993"}
	diffStrings = []string{"7", "007", "1e2", "alpha", "beta.example.org", "h.uni-passau.de", "tum.de"}
	// Rule-language constants: numerals are unsigned and have no exponent.
	diffNumConsts = []string{"0", "7", "007", "7.0", "2.5", "64", "100", "100.0", "1024", "9007199254740992", "9007199254740993"}
	diffStrConsts = []string{"'7'", "'007'", "'1e2'", "'alpha'", "'de'", "'.'", "'tum.de'", "''"}
)

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// randomDiffCache registers up to a dozen random documents as local
// metadata, so storeResource fills num_value as it does for pushes.
func randomDiffCache(t *testing.T, rng *rand.Rand) *repository.Repository {
	t.Helper()
	repo, err := repository.New("diff", diffSchema())
	if err != nil {
		t.Fatal(err)
	}
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
		host := doc.NewResource("host", "CycleProvider")
		if rng.Intn(6) > 0 {
			host.Add("serverHost", rdf.Lit(pick(rng, diffStrings)))
		}
		if rng.Intn(6) > 0 {
			host.Add("serverPort", rdf.Lit(pick(rng, diffInts)))
		}
		if rng.Intn(6) > 0 {
			host.Add("load", rdf.Lit(pick(rng, diffFloats)))
		}
		for k := rng.Intn(3); k > 0; k-- {
			host.Add("ports", rdf.Lit(pick(rng, diffInts)))
		}
		switch rng.Intn(4) {
		case 0: // no server information
		case 1: // cross-document reference, possibly dangling
			host.Add("serverInformation", rdf.Ref(fmt.Sprintf("doc%d.rdf#info", rng.Intn(12))))
		default:
			host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
		}
		if rng.Intn(4) > 0 {
			info := doc.NewResource("info", "ServerInformation")
			if rng.Intn(6) > 0 {
				info.Add("memory", rdf.Lit(pick(rng, diffInts)))
			}
			if rng.Intn(6) > 0 {
				info.Add("speed", rdf.Lit(pick(rng, diffFloats)))
			}
			if rng.Intn(6) > 0 {
				info.Add("label", rdf.Lit(pick(rng, diffStrings)))
			}
		}
		if err := repo.RegisterLocalDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// randomDiffPredicate draws one predicate over c (a CycleProvider) and, when
// withS, s (a ServerInformation).
func randomDiffPredicate(rng *rand.Rand, withS bool) string {
	numOps := []string{"=", "!=", "<", "<=", ">", ">="}
	strOps := []string{"=", "!=", "contains"}
	numProps := []string{"c.serverPort", "c.load", "c.ports?", "c.serverInformation.memory", "c.serverInformation.speed"}
	strProps := []string{"c.serverHost", "c.serverInformation.label"}
	if withS {
		numProps = append(numProps, "s.memory", "s.speed")
		strProps = append(strProps, "s.label")
	}
	switch rng.Intn(9) {
	case 0, 1: // numeric property against a numeric constant
		return pick(rng, numProps) + " " + pick(rng, numOps) + " " + pick(rng, diffNumConsts)
	case 2: // constant on the left
		return pick(rng, diffNumConsts) + " " + pick(rng, numOps) + " " + pick(rng, numProps)
	case 3: // two numeric properties
		return pick(rng, numProps) + " " + pick(rng, numOps) + " " + pick(rng, numProps)
	case 4: // string constant on a numeric property: compared as text
		return pick(rng, numProps) + " " + pick(rng, []string{"=", "!="}) + " " + pick(rng, diffStrConsts)
	case 5: // numeric constant on a string property: compared as text
		return pick(rng, strProps) + " " + pick(rng, []string{"=", "!="}) + " " + pick(rng, diffNumConsts)
	case 6: // string property against a string constant
		return pick(rng, strProps) + " " + pick(rng, strOps) + " " + pick(rng, diffStrConsts)
	case 7: // two string properties
		return pick(rng, strProps) + " " + pick(rng, []string{"=", "!="}) + " " + pick(rng, strProps)
	default: // a resource by URI
		return fmt.Sprintf("c = 'doc%d.rdf#host'", rng.Intn(12))
	}
}

// randomDiffQuery draws a query: one or two variables, one to three
// predicates joined by and/or.
func randomDiffQuery(rng *rand.Rand) string {
	withS := rng.Intn(3) == 0
	var b strings.Builder
	if withS {
		b.WriteString("search CycleProvider c, ServerInformation s register ")
		b.WriteString(pick(rng, []string{"c", "s"}))
		b.WriteString(" where c.serverInformation = s")
	} else {
		b.WriteString("search CycleProvider c register c where ")
		b.WriteString(randomDiffPredicate(rng, false))
	}
	for k := rng.Intn(3); k > 0; k-- {
		conn := " and "
		if !withS && rng.Intn(3) == 0 {
			conn = " or "
		}
		b.WriteString(conn)
		b.WriteString(randomDiffPredicate(rng, withS))
	}
	return b.String()
}

// urisOf evaluates every disjunct of a query with one translator and
// returns the union of the registered URIs, sorted.
func urisOf(db *sql.DB, schema *rdf.Schema, src string,
	translate func(*rules.NormalRule, *rdf.Schema) (string, []rdb.Value, error)) ([]string, error) {
	q, err := rules.Parse(src)
	if err != nil {
		return nil, err
	}
	normalized, err := rules.Normalize(q, schema, nil)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, nr := range normalized {
		text, params, err := translate(nr, schema)
		if err != nil {
			return nil, err
		}
		err = db.QueryFunc(text, params, func(row []rdb.Value) error {
			seen[row[0].Str] = true
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", text, err)
		}
	}
	out := make([]string, 0, len(seen))
	for uri := range seen {
		out = append(out, uri)
	}
	sort.Strings(out)
	return out, nil
}

// TestTranslateDifferential runs random queries over random caches and
// checks that the typed translation returns exactly the URIs the CAST-and-
// scan translation returns, through the evaluator's own entry point too.
func TestTranslateDifferential(t *testing.T) {
	schema := diffSchema()
	nonEmpty := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo := randomDiffCache(t, rng)
		ev := NewEvaluator(repo.DB(), schema)
		for i := 0; i < 40; i++ {
			src := randomDiffQuery(rng)
			want, err := urisOf(repo.DB(), schema, src, translateCast)
			if err != nil {
				t.Fatalf("seed %d: oracle on %q: %v", seed, src, err)
			}
			got, err := urisOf(repo.DB(), schema, src, Translate)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, src, err)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("seed %d: %q:\n typed %v\n cast  %v", seed, src, got, want)
			}
			viaEval, err := ev.EvaluateURIs(src)
			if err != nil {
				t.Fatalf("seed %d: evaluate %q: %v", seed, src, err)
			}
			if strings.Join(viaEval, ",") != strings.Join(want, ",") {
				t.Fatalf("seed %d: %q: evaluator %v, cast %v", seed, src, viaEval, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	// The generator must exercise matches, not only empty answers.
	if nonEmpty < 300 {
		t.Errorf("only %d of 2400 queries matched anything", nonEmpty)
	}
}

// TestTranslateNumericEdgeCases pins the coercion on hand-picked cases: one
// number in several lexical forms is one FLOAT, signed zeros are equal, 2^53
// and 2^53+1 collapse, NaN equals only NaN under the storage order, and a
// string constant compares a numeric property by its lexical form.
func TestTranslateNumericEdgeCases(t *testing.T) {
	schema := diffSchema()
	repo, err := repository.New("edge", schema)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]string{
		"a": "7", "b": "7.0", "c": "1e2", "d": "-0", "e": "0",
		"f": "9007199254740993", "g": "NaN", "h": "Inf", "i": "-Inf",
	}
	ports := map[string]string{"a": "007", "b": "7", "c": "+7", "d": "-0", "e": "0", "f": "9007199254740992"}
	doc := rdf.NewDocument("e.rdf")
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		r := doc.NewResource(id, "CycleProvider")
		r.Add("load", rdf.Lit(loads[id]))
		if p, ok := ports[id]; ok {
			r.Add("serverPort", rdf.Lit(p))
		}
	}
	if err := repo.RegisterLocalDocument(doc); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(repo.DB(), schema)
	for _, c := range []struct {
		where string
		want  string
	}{
		{"c.load = 7", "a,b"},
		{"c.load = 100", "c"},
		{"c.load = 0", "d,e"},
		{"c.load = 9007199254740992", "f"},
		{"c.serverPort = 7", "a,b,c"},
		{"c.serverPort = 007", "a,b,c"},
		{"c.serverPort = '007'", "a"},
		{"c.serverPort = '7'", "b"},
		{"c.serverPort != '7'", "a,c,d,e,f"},
		{"c.serverPort = 9007199254740993", "f"},
		{"c.serverPort = 0", "d,e"},
		{"c.serverPort < 1", "d,e"},
		{"c.load > 100", "f,h"},
		{"c.serverPort = c.load", "a,b,d,e,f"},
	} {
		src := "search CycleProvider c register c where " + c.where
		want, err := urisOf(repo.DB(), schema, src, translateCast)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.where, err)
		}
		got, err := ev.EvaluateURIs(src)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: typed %v, cast %v", c.where, got, want)
		}
		var short []string
		for _, uri := range got {
			short = append(short, strings.TrimPrefix(uri, "e.rdf#"))
		}
		if strings.Join(short, ",") != c.want {
			t.Errorf("%s: got %v, want %s", c.where, short, c.want)
		}
	}
}
