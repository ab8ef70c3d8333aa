package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one subscription rule.
func Parse(src string) (*Rule, error) {
	toks, err := lexRule(src)
	if err != nil {
		return nil, err
	}
	p := &ruleParser{toks: toks}
	r, err := p.parseRule()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return r, nil
}

// MustParse is Parse, panicking on error. For statically known rules.
func MustParse(src string) *Rule {
	r, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return r
}

type ruleTokKind uint8

const (
	rtEOF ruleTokKind = iota
	rtIdent
	rtKeyword // search register where and or not contains
	rtString
	rtNumber
	rtSymbol // . , ( ) ? = != < <= > >=
)

type ruleTok struct {
	kind ruleTokKind
	text string
	pos  int
}

var ruleKeywords = map[string]bool{
	"search": true, "register": true, "where": true,
	"and": true, "or": true, "not": true, "contains": true,
}

func lexRule(src string) ([]ruleTok, error) {
	var toks []ruleTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("rules: unterminated string at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, ruleTok{rtString, sb.String(), start})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				// A dot followed by a non-digit terminates the number (it is
				// a path separator, not a decimal point).
				if src[i] == '.' && (i+1 >= len(src) || src[i+1] < '0' || src[i+1] > '9') {
					break
				}
				i++
			}
			toks = append(toks, ruleTok{rtNumber, src[start:i], start})
		case isRuleIdentStart(c):
			start := i
			for i < len(src) && isRuleIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			if ruleKeywords[strings.ToLower(word)] {
				toks = append(toks, ruleTok{rtKeyword, strings.ToLower(word), start})
			} else {
				toks = append(toks, ruleTok{rtIdent, word, start})
			}
		default:
			start := i
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "!=", "<=", ">=":
				toks = append(toks, ruleTok{rtSymbol, two, start})
				i += 2
				continue
			}
			switch c {
			case '.', ',', '(', ')', '?', '=', '<', '>':
				toks = append(toks, ruleTok{rtSymbol, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("rules: unexpected character %q at offset %d", c, start)
			}
		}
	}
	toks = append(toks, ruleTok{kind: rtEOF, pos: len(src)})
	return toks, nil
}

func isRuleIdentStart(c byte) bool {
	return c == '_' || c == '#' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isRuleIdentPart(c byte) bool {
	return isRuleIdentStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':' || c == '/'
}

type ruleParser struct {
	toks []ruleTok
	pos  int
}

func (p *ruleParser) peek() ruleTok { return p.toks[p.pos] }
func (p *ruleParser) atEOF() bool   { return p.peek().kind == rtEOF }

func (p *ruleParser) accept(kind ruleTokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return true
	}
	return false
}

func (p *ruleParser) expectKeyword(kw string) error {
	if !p.accept(rtKeyword, kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *ruleParser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != rtIdent {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *ruleParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("rules: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *ruleParser) parseRule() (*Rule, error) {
	if err := p.expectKeyword("search"); err != nil {
		return nil, err
	}
	r := &Rule{}
	seenVars := map[string]bool{}
	for {
		ext, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if seenVars[v] {
			return nil, p.errorf("duplicate variable %q", v)
		}
		seenVars[v] = true
		r.Search = append(r.Search, Binding{Var: v, Extension: ext})
		if !p.accept(rtSymbol, ",") {
			break
		}
	}
	if err := p.expectKeyword("register"); err != nil {
		return nil, err
	}
	reg, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if !seenVars[reg] {
		return nil, p.errorf("register variable %q is not bound in search", reg)
	}
	r.Register = reg
	if p.accept(rtKeyword, "where") {
		cond, err := p.parseOr(seenVars)
		if err != nil {
			return nil, err
		}
		r.Where = cond
	}
	return r, nil
}

// Condition grammar: or := and ('or' and)*, and := unary ('and' unary)*,
// unary := 'not' unary | '(' or ')' | predicate.
func (p *ruleParser) parseOr(vars map[string]bool) (Cond, error) {
	left, err := p.parseAnd(vars)
	if err != nil {
		return nil, err
	}
	for p.accept(rtKeyword, "or") {
		right, err := p.parseAnd(vars)
		if err != nil {
			return nil, err
		}
		left = &OrCond{Left: left, Right: right}
	}
	return left, nil
}

func (p *ruleParser) parseAnd(vars map[string]bool) (Cond, error) {
	left, err := p.parseUnary(vars)
	if err != nil {
		return nil, err
	}
	for p.accept(rtKeyword, "and") {
		right, err := p.parseUnary(vars)
		if err != nil {
			return nil, err
		}
		left = &AndCond{Left: left, Right: right}
	}
	return left, nil
}

func (p *ruleParser) parseUnary(vars map[string]bool) (Cond, error) {
	if p.accept(rtKeyword, "not") {
		x, err := p.parseUnary(vars)
		if err != nil {
			return nil, err
		}
		return &NotCond{X: x}, nil
	}
	if p.accept(rtSymbol, "(") {
		x, err := p.parseOr(vars)
		if err != nil {
			return nil, err
		}
		if !p.accept(rtSymbol, ")") {
			return nil, p.errorf("expected )")
		}
		return x, nil
	}
	pred, err := p.parsePredicate(vars)
	if err != nil {
		return nil, err
	}
	return &PredCond{Pred: pred}, nil
}

func (p *ruleParser) parsePredicate(vars map[string]bool) (Predicate, error) {
	left, err := p.parseOperand(vars)
	if err != nil {
		return Predicate{}, err
	}
	op, err := p.parseOp()
	if err != nil {
		return Predicate{}, err
	}
	right, err := p.parseOperand(vars)
	if err != nil {
		return Predicate{}, err
	}
	if left.Kind == OperandConst && right.Kind == OperandConst {
		return Predicate{}, p.errorf("predicate compares two constants")
	}
	return Predicate{Left: left, Op: op, Right: right}, nil
}

func (p *ruleParser) parseOp() (Op, error) {
	t := p.peek()
	if t.kind == rtKeyword && t.text == "contains" {
		p.pos++
		return OpContains, nil
	}
	if t.kind == rtSymbol {
		var op Op
		switch t.text {
		case "=":
			op = OpEq
		case "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			return 0, p.errorf("expected comparison operator, found %q", t.text)
		}
		p.pos++
		return op, nil
	}
	return 0, p.errorf("expected comparison operator, found %q", t.text)
}

func (p *ruleParser) parseOperand(vars map[string]bool) (Operand, error) {
	t := p.peek()
	switch t.kind {
	case rtString:
		p.pos++
		return ConstOperand(StringConst(t.text)), nil
	case rtNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Operand{}, p.errorf("invalid number %q", t.text)
			}
			return ConstOperand(FloatConst(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, p.errorf("invalid number %q", t.text)
		}
		return ConstOperand(IntConst(n)), nil
	case rtIdent:
		p.pos++
		name := t.text
		if !vars[name] {
			// Unbound identifiers are rejected rather than treated as bare
			// constants: URI references in OID rules must be quoted, which
			// also catches variable typos at parse time.
			return Operand{}, p.errorf("unbound variable %q (string constants must be quoted)", name)
		}
		op := Operand{Kind: OperandPath, Var: name}
		for p.accept(rtSymbol, ".") {
			prop, err := p.expectIdent()
			if err != nil {
				return Operand{}, err
			}
			step := PathStep{Property: prop}
			if p.accept(rtSymbol, "?") {
				step.Any = true
			}
			op.Path = append(op.Path, step)
		}
		return op, nil
	default:
		return Operand{}, p.errorf("expected operand, found %q", t.text)
	}
}
