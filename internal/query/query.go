// Package query implements the MDV query language over an LMR's local
// cache. The paper (§2.2) states the query language "is quite similar to
// the rule language" and that "search requests are translated into SQL join
// queries"; this package does exactly that: a query is parsed and
// normalized with the rule machinery, then translated into one SQL join
// query over the cache tables and executed locally. The translation
// compares numbers through the cache's typed num_value column and starts
// the join from the atom a constant binds most selectively, so a query
// reads the index entries its constants select rather than scanning the
// class.
package query

import (
	"fmt"
	"sort"
	"strings"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// Evaluator evaluates MDV queries against a cache database (the tables
// created by internal/repository).
type Evaluator struct {
	db     *sql.DB
	schema *rdf.Schema
}

// NewEvaluator creates an evaluator over a repository's database.
func NewEvaluator(db *sql.DB, schema *rdf.Schema) *Evaluator {
	return &Evaluator{db: db, schema: schema}
}

// Evaluate runs a query in the MDV query language and returns the matching
// resources, sorted by URI reference. OR queries evaluate each disjunct and
// union the results. The whole evaluation — disjunct queries plus resource
// reconstruction — runs inside one read transaction, so concurrent queries
// execute in parallel and each sees a single writer-free snapshot.
func (ev *Evaluator) Evaluate(src string) ([]*rdf.Resource, error) {
	var out []*rdf.Resource
	err := ev.db.View(func(txn *sql.ReadTxn) error {
		uris, err := ev.evaluateURIsTxn(txn, src)
		if err != nil {
			return err
		}
		out = make([]*rdf.Resource, 0, len(uris))
		for _, uri := range uris {
			res, ok, err := atoms.CacheStatements.Read(txn, uri)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, res)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateURIs runs a query and returns the matching URI references.
func (ev *Evaluator) EvaluateURIs(src string) ([]string, error) {
	var out []string
	err := ev.db.View(func(txn *sql.ReadTxn) error {
		var err error
		out, err = ev.evaluateURIsTxn(txn, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (ev *Evaluator) evaluateURIsTxn(txn *sql.ReadTxn, src string) ([]string, error) {
	q, err := rules.Parse(src)
	if err != nil {
		return nil, err
	}
	normalized, err := rules.Normalize(q, ev.schema, nil)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, nr := range normalized {
		text, params, err := Translate(nr, ev.schema)
		if err != nil {
			return nil, err
		}
		err = txn.QueryFunc(text, params, func(row []rdb.Value) error {
			uri := row[0].Str
			if !seen[uri] {
				seen[uri] = true
				out = append(out, uri)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// Translate turns one normalized query into a SQL join query over the cache
// tables: one Cache alias anchors the class of each variable, and every
// property access joins one CacheStatements alias, restricted to its
// variable's class so the (class, property, …) indexes apply. Numeric
// comparisons compare the typed num_value column against a FLOAT parameter
// made by rdb.NumValue, the coercion the MDP's filter tables use. The FROM
// list starts with the alias that carries the most selective constant
// comparison (=, then a range, then CONTAINS), and the planner joins outward
// from it along the equality links. It returns the SQL text and parameters;
// the single result column is the registered variable's URI reference.
func Translate(nr *rules.NormalRule, schema *rdf.Schema) (string, []rdb.Value, error) {
	var from []string
	var where []string
	var params []rdb.Value

	// One Cache anchor per variable.
	anchor := map[string]string{}
	class := map[string]string{}
	for i, b := range nr.Search {
		alias := fmt.Sprintf("r%d", i)
		anchor[b.Var] = alias
		class[b.Var] = b.Extension
		from = append(from, "Cache "+alias)
		where = append(where, alias+".class = ?")
		params = append(params, rdb.NewText(b.Extension))
	}
	regAnchor, ok := anchor[nr.Register]
	if !ok {
		return "", nil, fmt.Errorf("query: register variable %q unbound", nr.Register)
	}

	// operand is one rendered side of a comparison: a constant, a bare
	// variable (its anchor's URI reference), or a property of a variable
	// (a CacheStatements alias, joined on first use).
	type operand struct {
		alias   string // "" for a constant
		prop    bool   // alias is a CacheStatements alias
		c       rules.Const
		numeric bool
	}
	nProps := 0
	operandOf := func(o rules.Operand) operand {
		switch {
		case o.Kind == rules.OperandConst:
			return operand{c: o.Const, numeric: o.Const.Kind != rules.ConstString}
		case len(o.Path) == 0:
			return operand{alias: anchor[o.Var]}
		}
		prop := o.Path[0].Property
		nProps++
		alias := fmt.Sprintf("p%d", nProps)
		from = append(from, "CacheStatements "+alias)
		where = append(where,
			alias+".uri_reference = "+anchor[o.Var]+".uri_reference",
			alias+".class = ?",
			alias+".property = ?")
		params = append(params, rdb.NewText(class[o.Var]), rdb.NewText(prop))
		return operand{alias: alias, prop: true, numeric: schema.IsNumeric(class[o.Var], prop)}
	}

	// lead is the alias whose constant comparison the join starts from;
	// leadRank orders the comparisons by selectivity.
	lead, leadRank := "", 3
	for _, p := range nr.Where {
		l, r := operandOf(p.Left), operandOf(p.Right)
		typed := p.Op.Numeric() || (p.Op == rules.OpEq || p.Op == rules.OpNe) && l.numeric && r.numeric
		var condParams []rdb.Value
		sqlOf := func(o operand) string {
			switch {
			case o.alias == "" && typed:
				condParams = append(condParams, rdb.NumValue(o.c.Lexical()))
				return "?"
			case o.alias == "":
				condParams = append(condParams, rdb.NewText(o.c.Lexical()))
				return "?"
			case !o.prop:
				return o.alias + ".uri_reference"
			case typed:
				return o.alias + ".num_value"
			default:
				return o.alias + ".value"
			}
		}
		op := p.Op.String()
		if p.Op == rules.OpContains {
			op = "CONTAINS"
		}
		lhs, rhs := sqlOf(l), sqlOf(r)
		where = append(where, lhs+" "+op+" "+rhs)
		params = append(params, condParams...)

		if (l.alias == "") == (r.alias == "") {
			continue // not a comparison of a relation with a constant
		}
		alias := l.alias + r.alias
		rank := 3
		switch {
		case p.Op == rules.OpEq:
			rank = 0
		case p.Op.Numeric():
			rank = 1
		case p.Op == rules.OpContains:
			rank = 2
		}
		if rank < leadRank {
			lead, leadRank = alias, rank
		}
	}
	if lead != "" {
		for i, f := range from {
			if strings.HasSuffix(f, " "+lead) {
				copy(from[1:i+1], from[:i])
				from[0] = f
				break
			}
		}
	}

	text := "SELECT DISTINCT " + regAnchor + ".uri_reference FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	return text, params, nil
}
