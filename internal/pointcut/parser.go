package pointcut

import (
	"fmt"
	"strings"
	"unicode"
)

// ------------------------------------------------------------- lexer --

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokDot
	tokDotDot
	tokComma
	tokAnd
	tokOr
	tokNot
	tokAt
	tokPlus
	tokStar
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	src    string
	pos    int
	peeked *token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) peek() token {
	if l.peeked == nil {
		t := l.scan()
		l.peeked = &t
	}
	return *l.peeked
}

func (l *lexer) next() token {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t
	}
	return l.scan()
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{tokLParen, "("}
	case ')':
		l.pos++
		return token{tokRParen, ")"}
	case ',':
		l.pos++
		return token{tokComma, ","}
	case '@':
		l.pos++
		return token{tokAt, "@"}
	case '+':
		l.pos++
		return token{tokPlus, "+"}
	case '*':
		// '*' may begin a wildcard identifier fragment like "*Cols".
		return l.scanIdent()
	case '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
			l.pos += 2
			return token{tokDotDot, ".."}
		}
		l.pos++
		return token{tokDot, "."}
	case '&':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '&' {
			l.pos += 2
			return token{tokAnd, "&&"}
		}
	case '|':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '|' {
			l.pos += 2
			return token{tokOr, "||"}
		}
	case '!':
		l.pos++
		return token{tokNot, "!"}
	}
	if isIdentRune(rune(c)) {
		return l.scanIdent()
	}
	bad := string(c)
	l.pos++
	return token{tokIdent, bad} // surfaced as a parse error by callers
}

func isIdentRune(r rune) bool {
	return r == '_' || r == '*' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) scanIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentRune(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if text == "*" {
		return token{tokStar, "*"}
	}
	return token{tokIdent, text}
}

// ------------------------------------------------------------ parser --

// maxParseDepth bounds expression nesting so hostile inputs (kilobytes of
// '(' or '!') fail with an error instead of exhausting the goroutine
// stack — a contract the fuzz harness pins.
const maxParseDepth = 64

type parser struct {
	lex   *lexer
	depth int
}

func (p *parser) parseExpr() (node, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, fmt.Errorf("expression nested deeper than %d", maxParseDepth)
	}
	return p.parseOr()
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().kind == tokOr {
		p.lex.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orNode{left, right}
	}
	return left, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().kind == tokAnd {
		p.lex.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andNode{left, right}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, fmt.Errorf("expression nested deeper than %d", maxParseDepth)
	}
	switch tok := p.lex.peek(); tok.kind {
	case tokNot:
		p.lex.next()
		n, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notNode{n}, nil
	case tokLParen:
		p.lex.next()
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if t := p.lex.next(); t.kind != tokRParen {
			return nil, fmt.Errorf("expected ')', got %q", t.text)
		}
		return n, nil
	case tokIdent:
		return p.parsePrimitive()
	default:
		return nil, fmt.Errorf("unexpected %q", tok.text)
	}
}

func (p *parser) parsePrimitive() (node, error) {
	kw := p.lex.next()
	if t := p.lex.next(); t.kind != tokLParen {
		return nil, fmt.Errorf("expected '(' after %q", kw.text)
	}
	var n node
	var err error
	switch kw.text {
	case "call", "execution":
		n, err = p.parseSignature()
	case "within":
		pat, perr := p.parseTypeFragment()
		if perr != nil {
			return nil, perr
		}
		n = withinNode{pattern: compilePattern(pat)}
	case "annotation":
		if t := p.lex.next(); t.kind != tokAt {
			return nil, fmt.Errorf("expected '@' in annotation()")
		}
		name := p.lex.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("expected annotation name")
		}
		n = annotationNode{name: name.text}
	default:
		return nil, fmt.Errorf("unknown pointcut designator %q", kw.text)
	}
	if err != nil {
		return nil, err
	}
	if t := p.lex.next(); t.kind != tokRParen {
		return nil, fmt.Errorf("expected ')' to close %s, got %q", kw.text, t.text)
	}
	return n, nil
}

// parseTypeFragment consumes one identifier-or-star fragment.
func (p *parser) parseTypeFragment() (string, error) {
	t := p.lex.next()
	if t.kind != tokIdent && t.kind != tokStar {
		return "", fmt.Errorf("expected type pattern, got %q", t.text)
	}
	return t.text, nil
}

// parseSignature parses the body of call(...)/execution(...).
func (p *parser) parseSignature() (node, error) {
	sig := sigNode{}

	// Leading annotations: call(@Parallel * *(..)).
	for p.lex.peek().kind == tokAt {
		p.lex.next()
		name := p.lex.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("expected annotation name after '@'")
		}
		sig.annotations = append(sig.annotations, name.text)
	}

	// Collect fragments up to the argument list; they form
	// [ret] [class '.'] name, each optionally '*'-wildcarded, class
	// optionally suffixed '+'.
	type frag struct {
		text string
		plus bool
	}
	var frags []frag
	var dotted bool // whether a '.' separates the last two fragments
	for {
		tok := p.lex.peek()
		if tok.kind == tokLParen {
			break
		}
		switch tok.kind {
		case tokIdent, tokStar:
			p.lex.next()
			f := frag{text: tok.text}
			if p.lex.peek().kind == tokPlus {
				p.lex.next()
				f.plus = true
			}
			frags = append(frags, f)
		case tokDot:
			p.lex.next()
			dotted = true
			// The next fragment is the method name; merge handled below.
			tok2 := p.lex.next()
			if tok2.kind != tokIdent && tok2.kind != tokStar {
				return nil, fmt.Errorf("expected method name after '.', got %q", tok2.text)
			}
			frags = append(frags, frag{text: "." + tok2.text})
		default:
			return nil, fmt.Errorf("unexpected %q in signature", tok.text)
		}
	}
	if len(frags) == 0 {
		return nil, fmt.Errorf("empty signature")
	}

	// The final fragment is the method name (possibly ".name" if dotted);
	// the one before it (if dotted) is the class; an additional leading
	// fragment is the return pattern.
	last := frags[len(frags)-1]
	rest := frags[:len(frags)-1]
	if dotted && strings.HasPrefix(last.text, ".") {
		sig.namePat = compilePattern(last.text[1:])
		if len(rest) == 0 {
			return nil, fmt.Errorf("dangling '.' in signature")
		}
		cls := rest[len(rest)-1]
		sig.classPat, sig.subtypes = compilePattern(cls.text), cls.plus
		rest = rest[:len(rest)-1]
	} else {
		sig.namePat = compilePattern(last.text)
	}
	switch len(rest) {
	case 0:
	case 1:
		sig.ret = rest[0].text
	default:
		return nil, fmt.Errorf("too many fragments in signature")
	}

	// Argument list.
	if t := p.lex.next(); t.kind != tokLParen {
		return nil, fmt.Errorf("expected '(' for argument list")
	}
	if p.lex.peek().kind == tokRParen {
		p.lex.next()
		sig.args = []string{} // exactly zero args
		return &sig, nil
	}
	var args []string
	for {
		t := p.lex.next()
		switch t.kind {
		case tokDotDot:
			args = append(args, "..")
		case tokStar:
			args = append(args, "*")
		case tokIdent:
			args = append(args, t.text)
		default:
			return nil, fmt.Errorf("unexpected %q in argument list", t.text)
		}
		nxt := p.lex.next()
		if nxt.kind == tokRParen {
			break
		}
		if nxt.kind != tokComma {
			return nil, fmt.Errorf("expected ',' or ')' in argument list, got %q", nxt.text)
		}
	}
	// "(..)" alone means any args — canonicalise to nil.
	if len(args) == 1 && args[0] == ".." {
		sig.args = nil
	} else {
		sig.args = args
	}
	return &sig, nil
}
