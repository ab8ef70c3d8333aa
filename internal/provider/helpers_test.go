package provider

import (
	"fmt"

	"mdv/internal/rdf"
)

// testSchema has one class with one integer property.
func testSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverPort", Type: rdf.TypeInteger})
	return s
}

// testDoc is document b<i>.rdf: one CycleProvider with the given port.
func testDoc(i, port int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("b%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").Add("serverPort", rdf.Lit(fmt.Sprint(port)))
	return doc
}
