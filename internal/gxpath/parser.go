package gxpath

import (
	"fmt"
	"strings"
	"unicode"
)

// ParsePath parses the textual GXPath syntax, which round-trips the
// String renderings of this package:
//
//	path := cat (('u' | '∪') cat)*            union, lowest precedence
//	cat  := factor ('.' factor)*              concatenation
//	factor := atom ('*' | '_=' | '_!=')*      star and data comparisons
//	atom := 'eps' | label ['^-'] | '[' node ']'
//	      | '(' path ')' | '~' '(' path ')'   complement
//
//	node := conj ('|' conj)*                  disjunction
//	conj := natom ('&' natom)*                conjunction
//	natom := 'T' | '!' natom | '(' node ')'
//	       | '<' path '>'                     diamond
//	       | '<' path ('=' | '!=') path '>'   data test
//
// Labels are bare identifiers (letters, digits, '_', '-', ':', '#');
// the names 'eps', 'u' and 'T' are reserved by the grammar.
func ParsePath(input string) (Path, error) {
	p := &gxParser{in: input}
	e, err := p.parsePathUnion()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("gxpath: trailing input at %d: %q", p.pos, p.in[p.pos:])
	}
	return e, nil
}

// ParseNode parses a node formula in the syntax of ParsePath.
func ParseNode(input string) (Node, error) {
	p := &gxParser{in: input}
	e, err := p.parseNodeOr()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("gxpath: trailing input at %d: %q", p.pos, p.in[p.pos:])
	}
	return e, nil
}

type gxParser struct {
	in  string
	pos int
}

func (p *gxParser) skip() {
	for p.pos < len(p.in) && unicode.IsSpace(rune(p.in[p.pos])) {
		p.pos++
	}
}

func (p *gxParser) peek() byte {
	p.skip()
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *gxParser) has(s string) bool {
	p.skip()
	return strings.HasPrefix(p.in[p.pos:], s)
}

// ident scans a label. A '_' is part of the label unless it starts the
// data-comparison postfix '_=' or '_!=', so part_of parses as one label
// while a_= parses as the comparison of a.
func (p *gxParser) ident() string {
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '_' {
			rest := p.in[p.pos+1:]
			if strings.HasPrefix(rest, "=") || strings.HasPrefix(rest, "!=") {
				break
			}
		} else if !isGXIdent(c) {
			break
		}
		p.pos++
	}
	return p.in[start:p.pos]
}

func isGXIdent(c byte) bool {
	return c == '_' || c == '-' || c == ':' || c == '#' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// peekUnionOp reports whether the next token is the union operator 'u'
// (the bare identifier) or '∪'.
func (p *gxParser) peekUnionOp() bool {
	p.skip()
	if strings.HasPrefix(p.in[p.pos:], "∪") {
		return true
	}
	if p.pos < len(p.in) && p.in[p.pos] == 'u' {
		// 'u' is the operator only when not part of a longer identifier.
		return p.pos+1 == len(p.in) || !isGXIdent(p.in[p.pos+1])
	}
	return false
}

func (p *gxParser) parsePathUnion() (Path, error) {
	l, err := p.parsePathCat()
	if err != nil {
		return nil, err
	}
	for p.peekUnionOp() {
		if p.in[p.pos] == 'u' {
			p.pos++
		} else {
			p.pos += len("∪")
		}
		r, err := p.parsePathCat()
		if err != nil {
			return nil, err
		}
		l = Union{L: l, R: r}
	}
	return l, nil
}

func (p *gxParser) parsePathCat() (Path, error) {
	l, err := p.parsePathFactor()
	if err != nil {
		return nil, err
	}
	for p.peek() == '.' {
		p.pos++
		r, err := p.parsePathFactor()
		if err != nil {
			return nil, err
		}
		l = Concat{L: l, R: r}
	}
	return l, nil
}

func (p *gxParser) parsePathFactor() (Path, error) {
	e, err := p.parsePathAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peek() == '*':
			p.pos++
			e = Star{P: e}
		case p.has("_!="):
			p.pos += 3
			e = DataCmp{P: e, Neq: true}
		case p.has("_="):
			p.pos += 2
			e = DataCmp{P: e}
		default:
			return e, nil
		}
	}
}

func (p *gxParser) parsePathAtom() (Path, error) {
	switch c := p.peek(); c {
	case '(':
		p.pos++
		e, err := p.parsePathUnion()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("gxpath: expected ')' at %d", p.pos)
		}
		p.pos++
		return e, nil
	case '~':
		p.pos++
		if p.peek() != '(' {
			return nil, fmt.Errorf("gxpath: expected '(' after '~' at %d", p.pos)
		}
		p.pos++
		e, err := p.parsePathUnion()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("gxpath: expected ')' at %d", p.pos)
		}
		p.pos++
		return Complement{P: e}, nil
	case '[':
		p.pos++
		n, err := p.parseNodeOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ']' {
			return nil, fmt.Errorf("gxpath: expected ']' at %d", p.pos)
		}
		p.pos++
		return Test{N: n}, nil
	default:
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("gxpath: expected path atom at %d: %q", p.pos, p.in[p.pos:])
		}
		if name == "eps" {
			return Eps{}, nil
		}
		if name == "u" {
			return nil, fmt.Errorf("gxpath: 'u' is the union operator, not a label (at %d)", p.pos)
		}
		if p.has("^-") {
			p.pos += 2
			return Label{A: name, Inv: true}, nil
		}
		return Label{A: name}, nil
	}
}

func (p *gxParser) parseNodeOr() (Node, error) {
	l, err := p.parseNodeAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == '|' {
		p.pos++
		r, err := p.parseNodeAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *gxParser) parseNodeAnd() (Node, error) {
	l, err := p.parseNodeAtom()
	if err != nil {
		return nil, err
	}
	for p.peek() == '&' {
		p.pos++
		r, err := p.parseNodeAtom()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *gxParser) parseNodeAtom() (Node, error) {
	switch p.peek() {
	case '!':
		p.pos++
		n, err := p.parseNodeAtom()
		if err != nil {
			return nil, err
		}
		return Not{N: n}, nil
	case '(':
		p.pos++
		n, err := p.parseNodeOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("gxpath: expected ')' at %d", p.pos)
		}
		p.pos++
		return n, nil
	case '<':
		p.pos++
		l, err := p.parsePathUnion()
		if err != nil {
			return nil, err
		}
		var neq, isTest bool
		switch {
		case p.has("!="):
			p.pos += 2
			neq, isTest = true, true
		case p.peek() == '=':
			p.pos++
			isTest = true
		}
		if !isTest {
			if p.peek() != '>' {
				return nil, fmt.Errorf("gxpath: expected '>' at %d", p.pos)
			}
			p.pos++
			return Diamond{P: l}, nil
		}
		r, err := p.parsePathUnion()
		if err != nil {
			return nil, err
		}
		if p.peek() != '>' {
			return nil, fmt.Errorf("gxpath: expected '>' at %d", p.pos)
		}
		p.pos++
		return DataTest{L: l, R: r, Neq: neq}, nil
	default:
		p.skip()
		if p.pos < len(p.in) && p.in[p.pos] == 'T' &&
			(p.pos+1 == len(p.in) || !isGXIdent(p.in[p.pos+1])) {
			p.pos++
			return Top{}, nil
		}
		return nil, fmt.Errorf("gxpath: expected node formula at %d: %q", p.pos, p.in[p.pos:])
	}
}
