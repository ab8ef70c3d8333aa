package rdf

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Namespace URIs recognized by the parser.
const (
	RDFNamespace  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNamespace = "http://www.w3.org/2000/01/rdf-schema#"
	// MDVNamespace carries the MDV schema extensions (strong/weak
	// references, paper §2.4).
	MDVNamespace = "http://mdv.db.fmi.uni-passau.de/schema#"
)

// ParseDocument parses an RDF/XML document (the subset MDV uses: typed
// nodes with rdf:ID/rdf:about, property elements holding literals, nested
// typed nodes, or rdf:resource references).
//
// Nested typed nodes are hoisted into top-level resources and replaced by a
// reference, reflecting that RDF does not distinguish nested from referenced
// resources (paper §2.1).
func ParseDocument(uri string, r io.Reader) (*Document, error) {
	doc := NewDocument(uri)
	dec := xml.NewDecoder(r)

	// Find the rdf:RDF root.
	root, err := nextStartElement(dec)
	if err != nil {
		return nil, fmt.Errorf("rdf: document %s: %w", uri, err)
	}
	if root == nil || !isRDFName(root.Name, "RDF") {
		return nil, fmt.Errorf("rdf: document %s: root element is not rdf:RDF", uri)
	}

	// Each child of the root is a typed node.
	for {
		se, err := nextChildStart(dec)
		if err != nil {
			return nil, fmt.Errorf("rdf: document %s: %w", uri, err)
		}
		if se == nil {
			break
		}
		if _, err := parseTypedNode(doc, dec, *se, 0); err != nil {
			return nil, fmt.Errorf("rdf: document %s: %w", uri, err)
		}
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(uri, src string) (*Document, error) {
	return ParseDocument(uri, strings.NewReader(src))
}

const maxNestingDepth = 64

// parseTypedNode parses a typed node element (a resource), returning its
// URI reference. The start element has already been consumed.
func parseTypedNode(doc *Document, dec *xml.Decoder, se xml.StartElement, depth int) (string, error) {
	if depth > maxNestingDepth {
		return "", fmt.Errorf("resource nesting deeper than %d", maxNestingDepth)
	}
	class := se.Name.Local
	var uriRef string
	for _, a := range se.Attr {
		switch {
		case isRDFName(a.Name, "ID"):
			uriRef = doc.QualifyID(a.Value)
		case isRDFName(a.Name, "about"):
			uriRef = a.Value
		}
	}
	if uriRef == "" {
		return "", fmt.Errorf("resource of class %s has neither rdf:ID nor rdf:about", class)
	}
	res := &Resource{URIRef: uriRef, Class: class}
	doc.Resources = append(doc.Resources, res)

	// Children are property elements.
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := parseProperty(doc, dec, res, t, depth); err != nil {
				return "", err
			}
		case xml.EndElement:
			return uriRef, nil
		case xml.CharData:
			if s := strings.TrimSpace(string(t)); s != "" {
				return "", fmt.Errorf("unexpected text %q inside resource %s", s, uriRef)
			}
		}
	}
}

// parseProperty parses one property element of a resource.
func parseProperty(doc *Document, dec *xml.Decoder, res *Resource, se xml.StartElement, depth int) error {
	name := se.Name.Local

	// rdf:resource attribute: reference property, element must be empty.
	for _, a := range se.Attr {
		if isRDFName(a.Name, "resource") {
			target := a.Value
			if strings.HasPrefix(target, "#") {
				target = doc.URI + target
			}
			res.Add(name, Ref(target))
			return dec.Skip()
		}
	}

	// Otherwise the content is either text (literal) or a nested typed node.
	var text strings.Builder
	sawChild := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.StartElement:
			// Nested typed node: hoist it and store a reference.
			ref, err := parseTypedNode(doc, dec, t, depth+1)
			if err != nil {
				return err
			}
			res.Add(name, Ref(ref))
			sawChild = true
		case xml.EndElement:
			if !sawChild {
				res.Add(name, Lit(strings.TrimSpace(text.String())))
			} else if s := strings.TrimSpace(text.String()); s != "" {
				return fmt.Errorf("property %s of %s mixes text and nested resources", name, res.URIRef)
			}
			return nil
		}
	}
}

func isRDFName(n xml.Name, local string) bool {
	if n.Local != local {
		return false
	}
	// Accept both the canonical namespace and unprefixed usage (lenient for
	// hand-written test documents).
	return n.Space == RDFNamespace || n.Space == "" || n.Space == "rdf"
}

// nextStartElement returns the first start element, or nil at EOF.
func nextStartElement(dec *xml.Decoder) (*xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return &se, nil
		}
	}
}

// nextChildStart returns the next start element before the parent's end
// element, or nil when the parent closes (or at EOF).
func nextChildStart(dec *xml.Decoder) (*xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return &t, nil
		case xml.EndElement:
			return nil, nil
		}
	}
}

// WriteDocument serializes a document as RDF/XML. All resources are written
// top-level; references use rdf:resource attributes. The output parses back
// to an equivalent document (same resources, classes, and properties).
func WriteDocument(w io.Writer, doc *Document) error {
	var sb strings.Builder
	sb.WriteString(xml.Header)
	sb.WriteString(`<rdf:RDF xmlns:rdf="` + RDFNamespace + `">` + "\n")
	for _, r := range doc.Resources {
		sb.WriteString("  <" + r.Class)
		if local, ok := strings.CutPrefix(r.URIRef, doc.URI+"#"); ok {
			sb.WriteString(` rdf:ID="` + escapeAttr(local) + `"`)
		} else {
			sb.WriteString(` rdf:about="` + escapeAttr(r.URIRef) + `"`)
		}
		sb.WriteString(">\n")
		for _, p := range r.Props {
			if p.Value.Kind == ResourceRef {
				target := p.Value.Ref
				if local, ok := strings.CutPrefix(target, doc.URI+"#"); ok {
					target = "#" + local
				}
				sb.WriteString("    <" + p.Name + ` rdf:resource="` + escapeAttr(target) + `"/>` + "\n")
				continue
			}
			sb.WriteString("    <" + p.Name + ">" + escapeText(p.Value.Literal) + "</" + p.Name + ">\n")
		}
		sb.WriteString("  </" + r.Class + ">\n")
	}
	sb.WriteString("</rdf:RDF>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// DocumentString serializes a document to a string.
func DocumentString(doc *Document) string {
	var sb strings.Builder
	WriteDocument(&sb, doc)
	return sb.String()
}

func escapeText(s string) string {
	var sb strings.Builder
	xml.EscapeText(&sb, []byte(s))
	return sb.String()
}

// attrEscaper escapes an attribute value; built once, it is safe for
// concurrent use.
var attrEscaper = strings.NewReplacer(`&`, "&amp;", `<`, "&lt;", `>`, "&gt;", `"`, "&quot;")

func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// SortResources orders the document's resources by URI reference. Useful
// for deterministic serialization in tests and replication.
func (d *Document) SortResources() {
	sort.Slice(d.Resources, func(i, j int) bool {
		return d.Resources[i].URIRef < d.Resources[j].URIRef
	})
}
