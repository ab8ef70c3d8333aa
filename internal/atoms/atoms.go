// Package atoms is the statement-row store both MDV tiers keep metadata in.
// The MDP stores every resource as its §3.2 atoms in relational tables, and
// the LMR cache "is itself a relational database" whose queries run as SQL
// joins over the same rows (§2.2). One row is one atom:
//
//	(uri_reference, class, property, value, num_value, is_ref)
//
// where num_value is the atom's typed numeric shadow. The MDP's Statements
// table and the LMR's CacheStatements table, which the baseline matcher
// writes too, are the two Tables of this package, so every writer
// decomposes, diffs, writes and reads a resource the same way, and a
// resource renders identically on both tiers.
package atoms

import (
	"slices"
	"strings"

	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
)

// Atom is one decomposed statement (paper §3.2) with its numeric shadow,
// what the num_value column stores: NULL unless the schema declares the
// property numeric. Only numeric properties are compared as numbers — the
// rule normalizer types every other operand as a string — so no triggering,
// join or cache query reads a text atom's num_value.
type Atom struct {
	rdf.Statement
	Num rdb.Value
}

// Row is the atom's column values in table order: uri_reference, class,
// property, value, num_value, is_ref.
func (a Atom) Row() []rdb.Value {
	return []rdb.Value{rdb.NewText(a.URIRef), rdb.NewText(a.Class), rdb.NewText(a.Property),
		rdb.NewText(a.Value), a.Num, rdb.NewBool(a.IsRef)}
}

// Decompose splits a resource into its atoms: the rdf#subject atom first,
// then one atom per property value, in the resource's property order.
func Decompose(schema *rdf.Schema, r *rdf.Resource) []Atom {
	stmts := (&rdf.Document{Resources: []*rdf.Resource{r}}).Statements()
	out := make([]Atom, len(stmts))
	for i, s := range stmts {
		out[i] = Atom{Statement: s, Num: rdb.Null()}
		if schema.IsNumeric(s.Class, s.Property) {
			out[i].Num = rdb.NumValue(s.Value)
		}
	}
	return out
}

// Delta is the row-level difference between two versions of a resource:
// every atom whose multiplicity changed, compared as whole statements with
// values by their lexical form, so 7 → 007 is a change. Drop lists each
// such atom of the old version once — all its rows are deleted — and Add
// every occurrence of such an atom in the new version, inserted after; a
// set value listed twice so keeps its rows in step with the resource.
type Delta struct {
	Drop, Add []Atom
}

// Diff computes the Delta that turns the rows of old into those of new. It
// hashes each atom twice, once to count it and once to test it: an atom
// can be a strong closure's long literal, which every push re-ships.
func Diff(old, new []Atom) Delta {
	// n is each atom's multiplicity in new minus that in old.
	n := make(map[rdf.Statement]int, len(old)+len(new))
	for _, a := range old {
		n[a.Statement]--
	}
	for _, a := range new {
		n[a.Statement]++
	}
	var d Delta
	for _, a := range new {
		if n[a.Statement] != 0 {
			d.Add = append(d.Add, a)
		}
	}
	for _, a := range old {
		if n[a.Statement] != 0 {
			n[a.Statement] = 0 // drop each atom once
			d.Drop = append(d.Drop, a)
		}
	}
	return d
}

// Querier runs a streaming SELECT: *sql.DB and *sql.ReadTxn both do.
type Querier interface {
	QueryFunc(text string, params []rdb.Value, visit func(row []rdb.Value) error) error
}

// Table is one statement table: its DDL and the statements that write and
// read it.
type Table struct {
	name, indexPrefix                                      string
	selectAtoms, selectRead, insert, deleteAtom, deleteURI string
}

// The two tiers' statement tables: the MDP's, and the LMR cache's, which
// the query language translates to.
var (
	Statements      = newTable("Statements", "stmt")
	CacheStatements = newTable("CacheStatements", "cstmt")
)

// newTable describes the statement table name whose indexes are named
// idx_<indexPrefix>_uri, _cpv and _cpn.
func newTable(name, indexPrefix string) *Table {
	return &Table{
		name:        name,
		indexPrefix: indexPrefix,
		selectAtoms: `SELECT class, property, value, is_ref, num_value FROM ` + name + ` WHERE uri_reference = ?`,
		selectRead:  `SELECT class, property, value, is_ref FROM ` + name + ` WHERE uri_reference = ?`,
		insert: `INSERT INTO ` + name + ` (uri_reference, class, property, value, num_value, is_ref)
			VALUES (?, ?, ?, ?, ?, ?)`,
		deleteAtom: `DELETE FROM ` + name + `
			WHERE uri_reference = ? AND property = ? AND value = ? AND class = ? AND is_ref = ?`,
		deleteURI: `DELETE FROM ` + name + ` WHERE uri_reference = ?`,
	}
}

// DDL creates the table and its three indexes: (uri_reference, property)
// rebuilds a resource, and the ordered (class, property, value) and
// (class, property, num_value) indexes serve equality and numeric
// comparisons as point lookups and range scans.
func (t *Table) DDL() []string {
	idx := func(suffix, cols string) string {
		return `CREATE INDEX idx_` + t.indexPrefix + `_` + suffix + ` ON ` + t.name + ` (` + cols + `)`
	}
	return []string{
		`CREATE TABLE ` + t.name + ` (
		uri_reference TEXT NOT NULL,
		class TEXT NOT NULL,
		property TEXT NOT NULL,
		value TEXT NOT NULL,
		num_value FLOAT,
		is_ref BOOL NOT NULL
	)`,
		idx("uri", "uri_reference, property"),
		idx("cpv", "class, property, value"),
		idx("cpn", "class, property, num_value"),
	}
}

// Insert stores atoms as rows, in order.
func (t *Table) Insert(db *sql.DB, as []Atom) error {
	rows := make([][]rdb.Value, len(as))
	for i, a := range as {
		rows[i] = a.Row()
	}
	_, err := db.ExecBatch(t.insert, rows)
	return err
}

// Apply writes a Delta: it deletes every row of each dropped atom, then
// inserts the added ones.
func (t *Table) Apply(db *sql.DB, d Delta) error {
	for _, a := range d.Drop {
		if _, err := db.Exec(t.deleteAtom, rdb.NewText(a.URIRef), rdb.NewText(a.Property),
			rdb.NewText(a.Value), rdb.NewText(a.Class), rdb.NewBool(a.IsRef)); err != nil {
			return err
		}
	}
	return t.Insert(db, d.Add)
}

// Delete removes every row of a resource.
func (t *Table) Delete(db *sql.DB, uri string) error {
	_, err := db.Exec(t.deleteURI, rdb.NewText(uri))
	return err
}

// Atoms returns a resource's stored atoms with their numeric shadows; none
// when it has no rows.
func (t *Table) Atoms(q Querier, uri string) ([]Atom, error) {
	var out []Atom
	err := q.QueryFunc(t.selectAtoms, []rdb.Value{rdb.NewText(uri)}, func(row []rdb.Value) error {
		out = append(out, Atom{Statement: rdf.Statement{URIRef: uri, Class: row[0].Str,
			Property: row[1].Str, Value: row[2].Str, IsRef: row[3].Bool}, Num: row[4]})
		return nil
	})
	return out, err
}

// Read rebuilds a resource from its rows in canonical order: properties by
// name, and the values of a set-valued property by their lexical form.
// The (uri_reference, property) index yields rows by property, but values
// of one property (equal keys) surface in physical row order, which
// free-list reuse makes history-dependent: without the sort the same
// resource could render its values differently on a long-lived store, a
// fresh one and a reloaded snapshot. ok is false when it has no rows.
func (t *Table) Read(q Querier, uri string) (res *rdf.Resource, ok bool, err error) {
	err = q.QueryFunc(t.selectRead, []rdb.Value{rdb.NewText(uri)}, func(row []rdb.Value) error {
		if res == nil {
			res = &rdf.Resource{URIRef: uri}
		}
		res.Class = row[0].Str
		switch prop, value := row[1].Str, row[2].Str; {
		case prop == rdf.SubjectProperty:
		case row[3].Bool:
			res.Add(prop, rdf.Ref(value))
		default:
			res.Add(prop, rdf.Lit(value))
		}
		return nil
	})
	if err != nil || res == nil {
		return nil, false, err
	}
	slices.SortStableFunc(res.Props, func(a, b rdf.Property) int {
		if a.Name != b.Name {
			return strings.Compare(a.Name, b.Name)
		}
		return strings.Compare(a.Value.String(), b.Value.String())
	})
	return res, true, nil
}
