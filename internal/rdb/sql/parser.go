package sql

import (
	"fmt"
	"strconv"
	"strings"

	"mdv/internal/rdb"
)

// Parse parses a single statement of the dialect in the package comment.
func Parse(src string) (Statement, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	st := p.parseStatement()
	if !p.at(tkEOF, "") {
		p.fail("unexpected %q", p.peek().text)
	}
	if p.err != nil {
		return nil, p.err
	}
	return st, nil
}

// parser is a recursive-descent parser with a sticky error: after the first
// failure at and accept match nothing, so the parse unwinds without
// consuming more input and Parse reports that first error.
type parser struct {
	tokens    []token
	pos       int
	numParams int
	err       error
}

func (p *parser) peek() token { return p.tokens[p.pos] }

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("sql: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
	}
}

// at reports whether the current token matches kind (and text, if non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return p.err == nil && t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a matching token or fails.
func (p *parser) expect(kind tokenKind, text string) token {
	t := p.peek()
	if !p.accept(kind, text) {
		want := text
		if want == "" {
			want = map[tokenKind]string{tkIdent: "identifier", tkNumber: "number"}[kind]
		}
		p.fail("expected %s, found %q", want, t.text)
	}
	return t
}

func (p *parser) ident() string { return p.expect(tkIdent, "").text }

// list parses item (',' item)*.
func (p *parser) list(item func()) {
	item()
	for p.accept(tkSymbol, ",") {
		item()
	}
}

// parenIdents parses '(' ident (',' ident)* ')'.
func (p *parser) parenIdents() []string {
	var names []string
	p.expect(tkSymbol, "(")
	p.list(func() { names = append(names, p.ident()) })
	p.expect(tkSymbol, ")")
	return names
}

func (p *parser) parseStatement() Statement {
	switch {
	case p.accept(tkKeyword, "SELECT"):
		return p.parseSelect()
	case p.accept(tkKeyword, "INSERT"):
		p.expect(tkKeyword, "INTO")
		st := &InsertStmt{Table: p.ident()}
		if p.at(tkSymbol, "(") {
			st.Columns = p.parenIdents()
		}
		p.expect(tkKeyword, "VALUES")
		p.expect(tkSymbol, "(")
		p.list(func() { st.values = append(st.values, p.parseExpr()) })
		p.expect(tkSymbol, ")")
		return st
	case p.accept(tkKeyword, "UPDATE"):
		st := &UpdateStmt{Table: p.ident()}
		p.expect(tkKeyword, "SET")
		p.list(func() {
			col := p.ident()
			p.expect(tkSymbol, "=")
			st.Set = append(st.Set, SetClause{Column: col, Value: p.parseExpr()})
		})
		st.Where = p.parseWhere()
		return st
	case p.accept(tkKeyword, "DELETE"):
		p.expect(tkKeyword, "FROM")
		st := &DeleteStmt{Table: p.ident()}
		st.Where = p.parseWhere()
		return st
	case p.accept(tkKeyword, "CREATE"):
		return p.parseCreate()
	case p.accept(tkKeyword, "DROP"):
		p.expect(tkKeyword, "TABLE")
		st := &DropTableStmt{IfExists: p.accept(tkKeyword, "IF")}
		if st.IfExists {
			p.expect(tkKeyword, "EXISTS")
		}
		st.Name = p.ident()
		return st
	}
	p.fail("expected statement, found %q", p.peek().text)
	return nil
}

func (p *parser) parseCreate() Statement {
	if p.accept(tkKeyword, "TABLE") {
		st := &CreateTableStmt{Def: rdb.TableDef{Name: p.ident()}}
		p.expect(tkSymbol, "(")
		p.list(func() {
			col := rdb.ColumnDef{Name: p.ident()}
			col.Type = p.parseType()
			for {
				switch {
				case p.accept(tkKeyword, "PRIMARY"):
					p.expect(tkKeyword, "KEY")
					col.PrimaryKey = true
				case p.accept(tkKeyword, "NOT"):
					p.expect(tkKeyword, "NULL")
					col.NotNull = true
				default:
					st.Def.Columns = append(st.Def.Columns, col)
					return
				}
			}
		})
		p.expect(tkSymbol, ")")
		return st
	}
	def := rdb.IndexDef{Unique: p.accept(tkKeyword, "UNIQUE")}
	p.expect(tkKeyword, "INDEX")
	def.Name = p.ident()
	p.expect(tkKeyword, "ON")
	def.Table = p.ident()
	def.Columns = p.parenIdents()
	return &CreateIndexStmt{Def: def}
}

var typeNames = map[string]rdb.Kind{
	"INT": rdb.KindInt, "FLOAT": rdb.KindFloat, "TEXT": rdb.KindText, "BOOL": rdb.KindBool,
}

func (p *parser) parseType() rdb.Kind {
	t := p.peek()
	kind, ok := typeNames[t.text]
	if !ok || !p.accept(tkKeyword, "") {
		p.fail("expected type name, found %q", t.text)
	}
	return kind
}

func (p *parser) parseSelect() *SelectStmt {
	st := &SelectStmt{Distinct: p.accept(tkKeyword, "DISTINCT"), Limit: -1}
	if !p.accept(tkSymbol, "*") {
		p.list(func() { st.Items = append(st.Items, p.parseColumn()) })
	}
	p.expect(tkKeyword, "FROM")
	p.list(func() {
		ref := TableRef{Table: p.ident()}
		ref.Alias = ref.Table
		if p.at(tkIdent, "") {
			ref.Alias = p.ident()
		}
		st.From = append(st.From, ref)
	})
	st.Where = p.parseWhere()
	if p.accept(tkKeyword, "ORDER") {
		p.expect(tkKeyword, "BY")
		p.list(func() { st.OrderBy = append(st.OrderBy, p.parseColumn()) })
	}
	if p.accept(tkKeyword, "LIMIT") {
		t := p.expect(tkNumber, "")
		n, err := strconv.Atoi(t.text)
		if err != nil {
			p.fail("invalid LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st
}

// parseWhere parses an optional WHERE clause into its AND-ed conditions.
func (p *parser) parseWhere() []Expr {
	var conds []Expr
	if p.accept(tkKeyword, "WHERE") {
		conds = append(conds, p.parseCondition())
		for p.accept(tkKeyword, "AND") {
			conds = append(conds, p.parseCondition())
		}
	}
	return conds
}

var comparisons = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true, "CONTAINS": true}

// parseCondition parses expr [op expr] with op a comparison or CONTAINS.
func (p *parser) parseCondition() Expr {
	left := p.parseExpr()
	t := p.peek()
	if (p.at(tkSymbol, "") || p.at(tkKeyword, "")) && comparisons[t.text] {
		p.pos++
		return &BinaryExpr{Op: t.text, Left: left, Right: p.parseExpr()}
	}
	return left
}

// parseExpr parses primary (('+' | '-') primary)*.
func (p *parser) parseExpr() Expr {
	e := p.parsePrimary()
	for {
		t := p.peek()
		if !p.accept(tkSymbol, "+") && !p.accept(tkSymbol, "-") {
			return e
		}
		e = &BinaryExpr{Op: t.text, Left: e, Right: p.parsePrimary()}
	}
}

func (p *parser) parsePrimary() Expr {
	t := p.peek()
	switch {
	case p.accept(tkNumber, ""):
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				p.fail("invalid number %q", t.text)
			}
			return &Literal{Value: rdb.NewFloat(f)}
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			p.fail("invalid number %q", t.text)
		}
		return &Literal{Value: rdb.NewInt(n)}
	case p.accept(tkString, ""):
		return &Literal{Value: rdb.NewText(t.text)}
	case p.accept(tkParam, ""):
		p.numParams++
		return &Param{Ordinal: p.numParams - 1}
	case p.accept(tkKeyword, "NULL"):
		return &Literal{Value: rdb.Null()}
	case p.accept(tkKeyword, "TRUE"):
		return &Literal{Value: rdb.NewBool(true)}
	case p.accept(tkKeyword, "FALSE"):
		return &Literal{Value: rdb.NewBool(false)}
	case p.accept(tkKeyword, "CAST"):
		p.expect(tkSymbol, "(")
		cast := &CastExpr{X: p.parseExpr()}
		p.expect(tkKeyword, "AS")
		cast.Type = p.parseType()
		p.expect(tkSymbol, ")")
		return cast
	case p.at(tkIdent, ""):
		return p.parseColumn()
	}
	p.fail("unexpected %q in expression", t.text)
	return nil
}

// parseColumn parses [alias.]col.
func (p *parser) parseColumn() *ColumnRef {
	ref := &ColumnRef{Column: p.ident()}
	if p.accept(tkSymbol, ".") {
		ref.Table, ref.Column = ref.Column, p.ident()
	}
	return ref
}
