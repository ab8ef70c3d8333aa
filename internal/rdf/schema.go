package rdf

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PropType is the declared range of a property.
type PropType uint8

const (
	// TypeString is a free-text literal.
	TypeString PropType = iota
	// TypeInteger is an integer literal.
	TypeInteger
	// TypeFloat is a floating-point literal.
	TypeFloat
	// TypeBoolean is a true/false literal.
	TypeBoolean
	// TypeResource is a reference to another resource.
	TypeResource
)

func (t PropType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInteger:
		return "integer"
	case TypeFloat:
		return "float"
	case TypeBoolean:
		return "boolean"
	case TypeResource:
		return "resource"
	default:
		return fmt.Sprintf("PropType(%d)", uint8(t))
	}
}

// RefKind classifies reference properties as strong or weak (paper §2.4).
// Resources behind strong references are transmitted together with the
// referencing resource; weak references are never followed.
type RefKind uint8

const (
	// WeakRef references are not followed during transmission.
	WeakRef RefKind = iota
	// StrongRef references are always transmitted with the referrer.
	StrongRef
)

func (k RefKind) String() string {
	if k == StrongRef {
		return "strong"
	}
	return "weak"
}

// PropertyDef declares one property of a class.
type PropertyDef struct {
	Name string
	Type PropType
	// RefClass is the range class for TypeResource properties.
	RefClass string
	// RefKind applies to TypeResource properties (strong/weak, §2.4).
	RefKind RefKind
	// SetValued allows multiple values; the rule language's ? operator
	// applies to such properties.
	SetValued bool
}

// Class declares a schema class and its properties.
type Class struct {
	Name  string
	props map[string]*PropertyDef
}

// Property returns the declared property, if any.
func (c *Class) Property(name string) (*PropertyDef, bool) {
	p, ok := c.props[name]
	return p, ok
}

// Properties returns all property definitions, sorted by name.
func (c *Class) Properties() []*PropertyDef {
	out := make([]*PropertyDef, 0, len(c.props))
	for _, p := range c.props {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Schema is the set of classes metadata must conform to. All MDPs of an MDV
// federation share one schema (paper §2.2).
type Schema struct {
	classes map[string]*Class
}

// NewSchema creates an empty schema.
func NewSchema() *Schema { return &Schema{classes: make(map[string]*Class)} }

// AddClass declares a class (idempotent) and returns it.
func (s *Schema) AddClass(name string) *Class {
	if c, ok := s.classes[name]; ok {
		return c
	}
	c := &Class{Name: name, props: make(map[string]*PropertyDef)}
	s.classes[name] = c
	return c
}

// AddProperty declares a property on a class, creating the class if needed.
func (s *Schema) AddProperty(class string, def PropertyDef) error {
	if def.Name == "" {
		return fmt.Errorf("rdf: schema: property with empty name on class %s", class)
	}
	if def.Type == TypeResource && def.RefClass == "" {
		return fmt.Errorf("rdf: schema: resource property %s.%s has no range class", class, def.Name)
	}
	c := s.AddClass(class)
	if _, dup := c.props[def.Name]; dup {
		return fmt.Errorf("rdf: schema: duplicate property %s.%s", class, def.Name)
	}
	p := def
	c.props[def.Name] = &p
	return nil
}

// MustAddProperty is AddProperty, panicking on error (for static schemas).
func (s *Schema) MustAddProperty(class string, def PropertyDef) {
	if err := s.AddProperty(class, def); err != nil {
		panic(err)
	}
}

// Class returns the named class.
func (s *Schema) Class(name string) (*Class, bool) {
	c, ok := s.classes[name]
	return c, ok
}

// Classes returns all class names, sorted.
func (s *Schema) Classes() []string {
	out := make([]string, 0, len(s.classes))
	for name := range s.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CheckLiteral verifies that a literal lexical form conforms to the
// property type.
func (p *PropertyDef) CheckLiteral(lex string) error {
	switch p.Type {
	case TypeString:
		return nil
	case TypeInteger:
		if _, err := strconv.ParseInt(lex, 10, 64); err != nil {
			return fmt.Errorf("rdf: %q is not a valid integer for property %s", lex, p.Name)
		}
		return nil
	case TypeFloat:
		if _, err := strconv.ParseFloat(lex, 64); err != nil {
			return fmt.Errorf("rdf: %q is not a valid float for property %s", lex, p.Name)
		}
		return nil
	case TypeBoolean:
		switch lex {
		case "true", "false":
			return nil
		}
		return fmt.Errorf("rdf: %q is not a valid boolean for property %s", lex, p.Name)
	case TypeResource:
		return fmt.Errorf("rdf: property %s expects a resource reference, got literal %q", p.Name, lex)
	}
	return fmt.Errorf("rdf: unknown property type %d", p.Type)
}

// ValidateDocument checks a document against the schema: every resource's
// class must be declared, every property must be declared on its class,
// literal values must conform to their type, references must be used where
// declared, set-valued constraints must hold, and references resolvable
// within the document must target the declared range class.
func (s *Schema) ValidateDocument(doc *Document) error {
	if err := doc.Validate(); err != nil {
		return err
	}
	for _, r := range doc.Resources {
		class, ok := s.Class(r.Class)
		if !ok {
			return fmt.Errorf("rdf: document %s: resource %s: unknown class %s", doc.URI, r.URIRef, r.Class)
		}
		counts := map[string]int{}
		for _, prop := range r.Props {
			def, ok := class.Property(prop.Name)
			if !ok {
				return fmt.Errorf("rdf: document %s: resource %s: property %s not declared on class %s",
					doc.URI, r.URIRef, prop.Name, r.Class)
			}
			counts[prop.Name]++
			if def.Type == TypeResource {
				if prop.Value.Kind != ResourceRef {
					return fmt.Errorf("rdf: document %s: resource %s: property %s expects a reference",
						doc.URI, r.URIRef, prop.Name)
				}
				if target, found := doc.Find(prop.Value.Ref); found && target.Class != def.RefClass {
					return fmt.Errorf("rdf: document %s: resource %s: property %s references %s of class %s, want %s",
						doc.URI, r.URIRef, prop.Name, target.URIRef, target.Class, def.RefClass)
				}
				continue
			}
			if prop.Value.Kind == ResourceRef {
				return fmt.Errorf("rdf: document %s: resource %s: property %s expects a literal, got reference",
					doc.URI, r.URIRef, prop.Name)
			}
			if err := def.CheckLiteral(prop.Value.Literal); err != nil {
				return fmt.Errorf("rdf: document %s: resource %s: %w", doc.URI, r.URIRef, err)
			}
		}
		for name, n := range counts {
			def, _ := class.Property(name)
			if n > 1 && !def.SetValued {
				return fmt.Errorf("rdf: document %s: resource %s: property %s is single-valued but has %d values",
					doc.URI, r.URIRef, name, n)
			}
		}
	}
	return nil
}

// IsStrongReference reports whether class.property is declared as a strong
// reference (paper §2.4).
func (s *Schema) IsStrongReference(class, property string) bool {
	c, ok := s.Class(class)
	if !ok {
		return false
	}
	p, ok := c.Property(property)
	if !ok {
		return false
	}
	return p.Type == TypeResource && p.RefKind == StrongRef
}

// IsNumeric reports whether class.property is declared integer- or
// float-typed: the properties whose values compare as numbers.
func (s *Schema) IsNumeric(class, property string) bool {
	c, ok := s.Class(class)
	if !ok {
		return false
	}
	p, ok := c.Property(property)
	if !ok {
		return false
	}
	return p.Type == TypeInteger || p.Type == TypeFloat
}

// ParseSchema reads a schema from its RDF Schema (XML) serialization. The
// accepted subset:
//
//	<rdfs:Class rdf:ID="CycleProvider"/>
//	<rdf:Property rdf:ID="serverHost">
//	    <rdfs:domain rdf:resource="#CycleProvider"/>
//	    <rdfs:range  rdf:resource="&rdfs;Literal"/>     (or #SomeClass)
//	    <mdv:literalType>integer</mdv:literalType>       (optional)
//	    <mdv:referenceType>strong</mdv:referenceType>    (optional)
//	    <mdv:setValued>true</mdv:setValued>              (optional)
//	</rdf:Property>
//
// mdv:literalType defaults to string; mdv:referenceType defaults to weak,
// following the conservative choice that references are not transmitted
// unless the schema designer opts in (paper §2.4).
func ParseSchema(r io.Reader) (*Schema, error) {
	// The schema serialization is itself an RDF document; reuse the parser.
	doc, err := ParseDocument("schema", r)
	if err != nil {
		return nil, err
	}
	s := NewSchema()
	// First pass: classes.
	for _, res := range doc.Resources {
		if res.Class == "Class" {
			s.AddClass(localName(res.URIRef))
		}
	}
	// Second pass: properties.
	for _, res := range doc.Resources {
		if res.Class != "Property" {
			continue
		}
		name := localName(res.URIRef)
		// An explicit mdv:name wins over the rdf:ID-derived name; the writer
		// emits it because two classes may declare equally named properties
		// while rdf:ID values must be unique within the document.
		if n, ok := res.Get("name"); ok && n.String() != "" {
			name = n.String()
		}
		domainVal, ok := res.Get("domain")
		if !ok || domainVal.Kind != ResourceRef {
			return nil, fmt.Errorf("rdf: schema property %s has no rdfs:domain", name)
		}
		domain := localName(domainVal.Ref)
		rangeVal, ok := res.Get("range")
		if !ok || rangeVal.Kind != ResourceRef {
			return nil, fmt.Errorf("rdf: schema property %s has no rdfs:range", name)
		}
		def := PropertyDef{Name: name}
		if sv, ok := res.Get("setValued"); ok && sv.String() == "true" {
			def.SetValued = true
		}
		if isLiteralRange(rangeVal.Ref) {
			def.Type = TypeString
			if lt, ok := res.Get("literalType"); ok {
				switch lt.String() {
				case "string":
					def.Type = TypeString
				case "integer":
					def.Type = TypeInteger
				case "float":
					def.Type = TypeFloat
				case "boolean":
					def.Type = TypeBoolean
				default:
					return nil, fmt.Errorf("rdf: schema property %s: unknown literal type %q", name, lt.String())
				}
			}
		} else {
			def.Type = TypeResource
			def.RefClass = localName(rangeVal.Ref)
			if rt, ok := res.Get("referenceType"); ok {
				switch rt.String() {
				case "strong":
					def.RefKind = StrongRef
				case "weak":
					def.RefKind = WeakRef
				default:
					return nil, fmt.Errorf("rdf: schema property %s: unknown reference type %q", name, rt.String())
				}
			}
		}
		if err := s.AddProperty(domain, def); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ParseSchemaString is ParseSchema over a string.
func ParseSchemaString(src string) (*Schema, error) {
	return ParseSchema(strings.NewReader(src))
}

// WriteSchema serializes the schema in the format accepted by ParseSchema.
func WriteSchema(w io.Writer, s *Schema) error {
	doc := NewDocument("schema")
	for _, cname := range s.Classes() {
		doc.NewResource(cname, "Class")
		c, _ := s.Class(cname)
		for _, p := range c.Properties() {
			res := doc.NewResource(cname+"."+p.Name, "Property")
			res.Add("name", Lit(p.Name))
			res.Add("domain", Ref(doc.QualifyID(cname)))
			if p.Type == TypeResource {
				res.Add("range", Ref(doc.QualifyID(p.RefClass)))
				res.Add("referenceType", Lit(p.RefKind.String()))
			} else {
				res.Add("range", Ref(RDFSNamespace+"Literal"))
				res.Add("literalType", Lit(p.Type.String()))
			}
			if p.SetValued {
				res.Add("setValued", Lit("true"))
			}
		}
	}
	return WriteDocument(w, doc)
}

// SchemaString serializes the schema to a string.
func SchemaString(s *Schema) string {
	var sb strings.Builder
	WriteSchema(&sb, s)
	return sb.String()
}

func localName(uriRef string) string {
	if i := strings.LastIndexByte(uriRef, '#'); i >= 0 {
		return uriRef[i+1:]
	}
	return uriRef
}

func isLiteralRange(ref string) bool {
	return strings.HasSuffix(ref, "#Literal") || ref == "Literal"
}
