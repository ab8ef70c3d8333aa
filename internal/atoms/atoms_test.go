package atoms

import (
	"strings"
	"testing"

	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
)

func testSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("DataProvider", rdf.PropertyDef{Name: "theme", Type: rdf.TypeString, SetValued: true})
	s.MustAddProperty("DataProvider", rdf.PropertyDef{Name: "size", Type: rdf.TypeInteger})
	return s
}

func provider(size string, themes ...string) *rdf.Resource {
	r := &rdf.Resource{URIRef: "d#p", Class: "DataProvider"}
	for _, th := range themes {
		r.Add("theme", rdf.Lit(th))
	}
	r.Add("size", rdf.Lit(size))
	return r
}

func render(as []Atom) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.Property + "=" + a.Value
	}
	return strings.Join(parts, " ")
}

// TestDecomposeNumericShadow: only a numeric property's atoms carry a
// num_value, text atoms stay NULL even when they parse as numbers.
func TestDecomposeNumericShadow(t *testing.T) {
	for _, a := range Decompose(testSchema(), provider("007", "42")) {
		numeric := a.Property == "size"
		if got := !a.Num.IsNull(); got != numeric {
			t.Errorf("%s=%s: num_value set %v, want %v", a.Property, a.Value, got, numeric)
		}
		if numeric && a.Num.Float != 7 {
			t.Errorf("size 007 shadows as %v", a.Num)
		}
	}
}

// TestDiffByMultiplicity: an atom whose count changes is dropped whole and
// re-added as often as the new version has it; 7 → 007 is a change.
func TestDiffByMultiplicity(t *testing.T) {
	s := testSchema()
	d := Diff(Decompose(s, provider("7", "a", "b", "b")), Decompose(s, provider("007", "a", "b", "c", "c")))
	if got, want := render(d.Drop), "theme=b size=7"; got != want {
		t.Errorf("drop %q, want %q", got, want)
	}
	if got, want := render(d.Add), "theme=b theme=c theme=c size=007"; got != want {
		t.Errorf("add %q, want %q", got, want)
	}
}

// TestApplyThenReadCanonical: rows written through Insert and Apply read
// back as the new version, set values sorted whatever the row order.
func TestApplyThenReadCanonical(t *testing.T) {
	s, db := testSchema(), sql.Open()
	for _, stmt := range CacheStatements.DDL() {
		db.MustExec(stmt)
	}
	old, cur := provider("1", "c"), provider("2", "c", "b", "a", "a")
	if err := CacheStatements.Insert(db, Decompose(s, old)); err != nil {
		t.Fatal(err)
	}
	stored, err := CacheStatements.Atoms(db, "d#p")
	if err != nil {
		t.Fatal(err)
	}
	if err := CacheStatements.Apply(db, Diff(stored, Decompose(s, cur))); err != nil {
		t.Fatal(err)
	}
	res, ok, err := CacheStatements.Read(db, "d#p")
	if err != nil || !ok {
		t.Fatalf("read: %v %v", ok, err)
	}
	var got []string
	for _, p := range res.Props {
		got = append(got, p.Name+"="+p.Value.String())
	}
	if g, want := strings.Join(got, " "), "size=2 theme=a theme=a theme=b theme=c"; g != want || res.Class != "DataProvider" {
		t.Errorf("read %s %q, want DataProvider %q", res.Class, g, want)
	}
	if err := CacheStatements.Delete(db, "d#p"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := CacheStatements.Read(db, "d#p"); ok || err != nil {
		t.Errorf("after Delete: ok %v, err %v", ok, err)
	}
}
