package workload

import (
	"fmt"

	"mdv/internal/atoms"
	"mdv/internal/query"
	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/rules"
)

// Baseline is the strawman the paper's filter algorithm is designed to
// beat (§3: "To avoid the evaluation of the possibly huge set of *all*
// subscription rules"): it keeps the metadata in the LMR cache's tables,
// written as a repository writes them, but on every registration it
// re-evaluates every subscription
// rule as a full SQL query and reports which rules match resources of the
// new batch. Its cost is Θ(|rule base|) per batch regardless of how few
// rules are affected.
type Baseline struct {
	schema *rdf.Schema
	db     *sql.DB
	rules  []baselineRule
}

type baselineRule struct {
	id   int64
	text string
	sql  string
	args []rdb.Value
}

// NewBaseline creates an empty baseline matcher.
func NewBaseline(schema *rdf.Schema) (*Baseline, error) {
	db := sql.Open()
	if err := repository.CreateTables(db); err != nil {
		return nil, err
	}
	return &Baseline{schema: schema, db: db}, nil
}

// Subscribe registers one rule with the naive matcher.
func (b *Baseline) Subscribe(ruleText string) error {
	r, err := rules.Parse(ruleText)
	if err != nil {
		return err
	}
	normalized, err := rules.Normalize(r, b.schema, nil)
	if err != nil {
		return err
	}
	for _, nr := range normalized {
		text, args, err := query.Translate(nr, b.schema)
		if err != nil {
			return err
		}
		b.rules = append(b.rules, baselineRule{
			id: int64(len(b.rules) + 1), text: ruleText, sql: text, args: args,
		})
	}
	return nil
}

// RuleCount returns the number of registered (normalized) rules.
func (b *Baseline) RuleCount() int { return len(b.rules) }

// Register stores a batch and re-evaluates every rule, returning the
// matches restricted to the batch's resources.
func (b *Baseline) Register(docs []*rdf.Document) (map[int64][]string, error) {
	batch := map[string]bool{}
	for _, doc := range docs {
		for _, r := range doc.Resources {
			if _, err := b.db.Exec(`INSERT INTO Cache (uri_reference, class, local) VALUES (?, ?, FALSE)`,
				rdb.NewText(r.URIRef), rdb.NewText(r.Class)); err != nil {
				return nil, err
			}
			batch[r.URIRef] = true
			if err := atoms.CacheStatements.Insert(b.db, atoms.Decompose(b.schema, r)); err != nil {
				return nil, err
			}
		}
	}
	out := map[int64][]string{}
	for _, r := range b.rules {
		err := b.db.QueryFunc(r.sql, r.args, func(row []rdb.Value) error {
			if uri := row[0].Str; batch[uri] {
				out[r.id] = append(out[r.id], uri)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("baseline rule %q: %w", r.text, err)
		}
	}
	return out, nil
}
