// Package grepx implements the `grep` offloadable executable used by the
// CompStor IO-intensive evaluation: a Thompson-NFA regular expression
// engine (linear-time simulation, no backtracking blowups) with a
// Boyer-Moore-Horspool fast path for literal patterns.
//
// Supported syntax: literals, '.', character classes [abc] [a-z] [^...],
// grouping (...), alternation |, repetition * + ? and {n}/{n,}/{n,m}
// intervals, and the anchors ^ / $ (zero-width: the start and end of the
// line, wherever they appear). This covers the pattern language the paper's
// search workloads exercise.
package grepx

import (
	"bytes"
	"fmt"
)

// node kinds of the pattern AST.
type nodeKind int

const (
	nChar nodeKind = iota
	nAny
	nClass
	nConcat
	nAlt
	nStar
	nPlus
	nQuest
	nEmpty
	nBOL // ^: the start of the line
	nEOL // $: the end of the line
)

type node struct {
	kind nodeKind
	ch   byte
	cls  *class
	subs []*node
}

// class is a byte set.
type class struct {
	neg  bool
	bits [4]uint64
}

func (c *class) add(b byte) { c.bits[b>>6] |= 1 << (b & 63) }
func (c *class) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.add(byte(b))
	}
}
func (c *class) has(b byte) bool { in := c.bits[b>>6]&(1<<(b&63)) != 0; return in != c.neg }

// Regexp is a compiled pattern.
type Regexp struct {
	prog     []inst
	startPC  int
	anchored bool // the pattern opens with ^: a match starts only at 0
	fold     bool
	// literal fast path: bytes.Index, or Horspool when folding case
	literal []byte
	bmh     *bmhSearcher
}

// parser is a recursive-descent pattern parser.
type parser struct {
	src  string
	pos  int
	fold bool
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("grepx: bad pattern %q at %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) next() (byte, bool) {
	c, ok := p.peek()
	if ok {
		p.pos++
	}
	return c, ok
}

// parseAlt = parseConcat ('|' parseConcat)*
func (p *parser) parseAlt() (*node, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []*node{left}
	for {
		c, ok := p.peek()
		if !ok || c != '|' {
			break
		}
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, right)
	}
	if len(alts) == 1 {
		return left, nil
	}
	return &node{kind: nAlt, subs: alts}, nil
}

func (p *parser) parseConcat() (*node, error) {
	var seq []*node
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		seq = append(seq, atom)
	}
	return concat(seq), nil
}

// concat is the node matching seq's nodes one after another.
func concat(seq []*node) *node {
	switch len(seq) {
	case 0:
		return &node{kind: nEmpty}
	case 1:
		return seq[0]
	}
	return &node{kind: nConcat, subs: seq}
}

func (p *parser) parseRepeat() (*node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok {
			return atom, nil
		}
		switch c {
		case '*':
			p.pos++
			atom = &node{kind: nStar, subs: []*node{atom}}
		case '+':
			p.pos++
			atom = &node{kind: nPlus, subs: []*node{atom}}
		case '?':
			p.pos++
			atom = &node{kind: nQuest, subs: []*node{atom}}
		case '{':
			rep, err := p.parseInterval(atom)
			if err != nil {
				return nil, err
			}
			if rep == nil {
				return atom, nil // literal '{', not an interval
			}
			atom = rep
		default:
			return atom, nil
		}
	}
}

// maxInterval bounds {n,m} expansion; larger intervals would explode the
// NFA (the same cap grep implementations use is typically 255; 64 is ample
// for line-oriented search).
const maxInterval = 64

// parseInterval parses {n}, {n,} or {n,m} after atom, expanding the
// repetition structurally. A malformed brace expression is treated as a
// literal '{' (returning nil), matching common grep behaviour.
func (p *parser) parseInterval(atom *node) (*node, error) {
	save := p.pos
	p.pos++ // '{'
	readInt := func() (int, bool) {
		start := p.pos
		for {
			c, ok := p.peek()
			if !ok || c < '0' || c > '9' {
				break
			}
			p.pos++
		}
		if p.pos == start || p.pos-start > 3 {
			return 0, false
		}
		n := 0
		for _, d := range p.src[start:p.pos] {
			n = n*10 + int(d-'0')
		}
		return n, true
	}
	lo, ok := readInt()
	if !ok {
		p.pos = save
		return nil, nil
	}
	hi := lo
	unbounded := false
	if c, okc := p.peek(); okc && c == ',' {
		p.pos++
		if h, okh := readInt(); okh {
			hi = h
		} else {
			unbounded = true
		}
	}
	if c, okc := p.next(); !okc || c != '}' {
		p.pos = save
		return nil, nil
	}
	if hi < lo || hi > maxInterval || lo > maxInterval {
		return nil, p.errf("interval {%d,%d} out of range", lo, hi)
	}
	// Expand: lo copies, then (hi-lo) optional copies (or a star for {n,}).
	var seq []*node
	for i := 0; i < lo; i++ {
		seq = append(seq, atom)
	}
	if unbounded {
		seq = append(seq, &node{kind: nStar, subs: []*node{atom}})
	} else {
		for i := lo; i < hi; i++ {
			seq = append(seq, &node{kind: nQuest, subs: []*node{atom}})
		}
	}
	return concat(seq), nil
}

func (p *parser) parseAtom() (*node, error) {
	c, ok := p.next()
	if !ok {
		return nil, p.errf("unexpected end")
	}
	switch c {
	case '(':
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if c, ok := p.next(); !ok || c != ')' {
			return nil, p.errf("missing )")
		}
		return inner, nil
	case ')':
		return nil, p.errf("unmatched )")
	case '[':
		return p.parseClass()
	case '.':
		return &node{kind: nAny}, nil
	case '^':
		return &node{kind: nBOL}, nil
	case '$':
		return &node{kind: nEOL}, nil
	case '*', '+', '?':
		return nil, p.errf("repetition with nothing to repeat")
	case '\\':
		e, ok := p.next()
		if !ok {
			return nil, p.errf("trailing backslash")
		}
		return p.charNode(unescape(e)), nil
	default:
		return p.charNode(c), nil
	}
}

func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	default:
		return e
	}
}

// charNode builds a char node, expanding to a two-case class under folding.
func (p *parser) charNode(c byte) *node {
	if p.fold && isAlpha(c) {
		cl := &class{}
		cl.add(lower(c))
		cl.add(upper(c))
		return &node{kind: nClass, cls: cl}
	}
	return &node{kind: nChar, ch: c}
}

func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 32
	}
	return c
}
func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 32
	}
	return c
}

func (p *parser) parseClass() (*node, error) {
	cl := &class{}
	if c, ok := p.peek(); ok && c == '^' {
		cl.neg = true
		p.pos++
	}
	first := true
	for {
		c, ok := p.next()
		if !ok {
			return nil, p.errf("missing ]")
		}
		if c == ']' && !first {
			break
		}
		first = false
		if c == '\\' {
			e, ok := p.next()
			if !ok {
				return nil, p.errf("trailing backslash in class")
			}
			c = unescape(e)
		}
		// Range?
		if n, ok := p.peek(); ok && n == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++
			hi, _ := p.next()
			if hi < c {
				return nil, p.errf("reversed range %c-%c", c, hi)
			}
			cl.addRange(c, hi)
			if p.fold {
				cl.addRange(lower(c), lower(hi))
				cl.addRange(upper(c), upper(hi))
			}
			continue
		}
		cl.add(c)
		if p.fold && isAlpha(c) {
			cl.add(lower(c))
			cl.add(upper(c))
		}
	}
	return &node{kind: nClass, cls: cl}, nil
}

// Compile parses a pattern. fold enables ASCII case-insensitive matching.
func Compile(pattern string, fold bool) (*Regexp, error) {
	re := &Regexp{fold: fold}
	if lit, ok := literalOf(pattern); ok && len(lit) > 0 {
		re.literal = lit
		if fold {
			re.bmh = newBMH(lit)
		}
		return re, nil
	}
	p := &parser{src: pattern, fold: fold}
	ast, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}
	re.anchored = ast.kind == nBOL || ast.kind == nConcat && ast.subs[0].kind == nBOL
	re.prog, re.startPC = compileNFA(ast)
	return re, nil
}

// literalOf reports whether the pattern is a plain literal (no
// metacharacters) and returns its bytes with escapes resolved.
func literalOf(pattern string) ([]byte, bool) {
	var out []byte
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch c {
		case '.', '*', '+', '?', '(', ')', '[', ']', '|', '^', '$', '{', '}':
			return nil, false
		case '\\':
			if i+1 >= len(pattern) {
				return nil, false
			}
			i++
			out = append(out, unescape(pattern[i]))
		default:
			out = append(out, c)
		}
	}
	return out, true
}

// MatchLine reports whether the pattern matches anywhere in line.
func (re *Regexp) MatchLine(line []byte) bool {
	if re.literal != nil {
		return re.findLiteral(line) >= 0
	}
	return re.matchNFA(line)
}

// findLiteral returns the index of the first occurrence of a literal
// pattern in line, or -1.
func (re *Regexp) findLiteral(line []byte) int {
	if re.bmh != nil {
		return re.bmh.find(line)
	}
	return bytes.Index(line, re.literal)
}
