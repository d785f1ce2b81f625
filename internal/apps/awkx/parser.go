package awkx

import (
	"fmt"

	"compstor/internal/apps/grepx"
)

// compiledRegex pairs a pattern's source with its compiled NFA.
type compiledRegex struct {
	src string
	re  *grepx.Regexp
}

func compileRegex(src string) (*compiledRegex, error) {
	re, err := grepx.Compile(src, false)
	if err != nil {
		return nil, err
	}
	return &compiledRegex{src: src, re: re}, nil
}

type parser struct {
	toks []token
	pos  int
	noGT int // >0 while '>' means print redirection, not comparison

	params  []string       // parameters of the function being parsed
	globals map[string]int // global name -> slot
}

func parse(src string) (*program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, globals: make(map[string]int)}
	for i, name := range specialNames {
		p.globals[name] = i
	}
	return p.parseProgram()
}

// bind resolves a variable name to its slot, giving a global its slot on
// first mention.
func (p *parser) bind(name string) varSlot {
	for i, param := range p.params {
		if param == name {
			return varSlot{local: true, idx: i}
		}
	}
	idx, ok := p.globals[name]
	if !ok {
		idx = len(p.globals)
		p.globals[name] = idx
	}
	return varSlot{idx: idx}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("awk: parse error near %s: %s", p.peek(), fmt.Sprintf(format, args...))
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token; the EOF token stays put, so peek is always valid.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tEOF }

func (p *parser) skipNewlines() {
	for p.peek().kind == tNewline || p.isOp(";") {
		p.pos++
	}
}

func (p *parser) isOp(text string) bool {
	t := p.peek()
	return t.kind == tOp && t.text == text
}

func (p *parser) isKeyword(text string) bool {
	t := p.peek()
	return t.kind == tKeyword && t.text == text
}

func (p *parser) expectOp(text string) error {
	if !p.isOp(text) {
		return p.errf("expected %q", text)
	}
	p.pos++
	return nil
}

func (p *parser) parseProgram() (*program, error) {
	prog := &program{funcs: make(map[string]*funcDef), globals: p.globals}
	p.skipNewlines()
	for !p.atEOF() {
		switch {
		case p.isKeyword("function"):
			fd, err := p.parseFunction()
			if err != nil {
				return nil, err
			}
			if _, dup := prog.funcs[fd.name]; dup {
				return nil, p.errf("duplicate function %s", fd.name)
			}
			prog.funcs[fd.name] = fd
		case p.isKeyword("BEGIN"):
			p.pos++
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			prog.begins = append(prog.begins, blk)
		case p.isKeyword("END"):
			p.pos++
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			prog.ends = append(prog.ends, blk)
		default:
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			prog.rules = append(prog.rules, r)
		}
		p.skipNewlines()
	}
	return prog, nil
}

func (p *parser) parseFunction() (*funcDef, error) {
	p.pos++ // function
	t := p.next()
	if t.kind != tFuncName && t.kind != tIdent {
		return nil, p.errf("expected function name")
	}
	fd := &funcDef{name: t.text}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for !p.isOp(")") {
		a := p.next()
		if a.kind != tIdent {
			return nil, p.errf("expected parameter name")
		}
		fd.params = append(fd.params, a.text)
		if p.isOp(",") {
			p.pos++
		}
	}
	p.pos++ // )
	p.skipNewlines()
	p.params = fd.params
	body, err := p.parseBlock()
	p.params = nil
	if err != nil {
		return nil, err
	}
	fd.body = body
	return fd, nil
}

func (p *parser) parseRule() (rule, error) {
	var r rule
	if !p.isOp("{") {
		pat, err := p.parseExpr()
		if err != nil {
			return r, err
		}
		r.pattern = pat
	}
	if p.isOp("{") {
		blk, err := p.parseBlock()
		if err != nil {
			return r, err
		}
		r.action = blk
	} else {
		// Pattern with no action: print $0.
		r.action = &stmtBlock{stmts: []stmt{&printStmt{}}}
	}
	return r, nil
}

func (p *parser) parseBlock() (*stmtBlock, error) {
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	blk := &stmtBlock{}
	p.skipNewlines()
	for !p.isOp("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.stmts = append(blk.stmts, s)
		p.skipNewlines()
	}
	p.pos++ // }
	return blk, nil
}

// parseSimpleOrBlock parses a loop/if body: either a block or one statement.
func (p *parser) parseSimpleOrBlock() (stmt, error) {
	p.skipNewlines()
	if p.isOp("{") {
		return p.parseBlock()
	}
	return p.parseStmt()
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.peek()
	if t.kind == tKeyword {
		switch t.text {
		case "print":
			p.pos++
			return p.parsePrint(false)
		case "printf":
			p.pos++
			return p.parsePrint(true)
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDo()
		case "for":
			return p.parseFor()
		case "break":
			p.pos++
			return &breakStmt{}, nil
		case "continue":
			p.pos++
			return &continueStmt{}, nil
		case "next":
			p.pos++
			return &nextStmt{}, nil
		case "exit":
			p.pos++
			var code expr
			if p.startsExpr() {
				var err error
				code, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			return &exitStmt{code: code}, nil
		case "return":
			p.pos++
			var val expr
			if p.startsExpr() {
				var err error
				val, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			return &returnStmt{val: val}, nil
		case "delete":
			p.pos++
			name := p.next()
			if name.kind != tIdent && name.kind != tFuncName {
				return nil, p.errf("expected array name after delete")
			}
			ds := &deleteStmt{arr: p.bind(name.text)}
			if p.isOp("[") {
				p.pos++
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					ds.index = append(ds.index, e)
					if p.isOp(",") {
						p.pos++
						continue
					}
					break
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
			}
			return ds, nil
		}
	}
	if p.isOp("{") {
		return p.parseBlock()
	}
	if p.isOp(";") {
		p.pos++
		return &stmtBlock{}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &exprStmt{e: e}, nil
}

// startsExpr reports whether the next token can begin an expression.
func (p *parser) startsExpr() bool {
	t := p.peek()
	switch t.kind {
	case tNumber, tString, tRegex, tIdent, tFuncName, tBuiltin:
		return true
	case tOp:
		switch t.text {
		case "(", "$", "!", "-", "+", "++", "--":
			return true
		}
	}
	return false
}

func (p *parser) parsePrint(formatted bool) (stmt, error) {
	var args []expr
	p.noGT++
	for p.startsExpr() {
		e, err := p.parseExpr()
		if err != nil {
			p.noGT--
			return nil, err
		}
		args = append(args, e)
		if p.isOp(",") {
			p.pos++
			p.skipNewlines()
			continue
		}
		break
	}
	p.noGT--
	var dest expr
	if p.isOp(">") || (p.peek().kind == tOp && p.peek().text == ">>") {
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		dest = e
	}
	if formatted {
		if len(args) == 0 {
			return nil, p.errf("printf needs a format")
		}
		return &printfStmt{args: args, dest: dest}, nil
	}
	return &printStmt{args: args, dest: dest}, nil
}

// parseCond parses the parenthesised condition of if, while and do-while.
func (p *parser) parseCond() (expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return cond, p.expectOp(")")
}

func (p *parser) parseIf() (stmt, error) {
	p.pos++ // if
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	then, err := p.parseSimpleOrBlock()
	if err != nil {
		return nil, err
	}
	st := &ifStmt{cond: cond, then: then}
	// Optional else (possibly after newlines / semicolon).
	save := p.pos
	p.skipNewlines()
	if p.isKeyword("else") {
		p.pos++
		elze, err := p.parseSimpleOrBlock()
		if err != nil {
			return nil, err
		}
		st.elze = elze
	} else {
		p.pos = save
	}
	return st, nil
}

func (p *parser) parseWhile() (stmt, error) {
	p.pos++ // while
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	body, err := p.parseSimpleOrBlock()
	if err != nil {
		return nil, err
	}
	return &loopStmt{cond: cond, body: body}, nil
}

func (p *parser) parseDo() (stmt, error) {
	p.pos++ // do
	body, err := p.parseSimpleOrBlock()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if !p.isKeyword("while") {
		return nil, p.errf("expected while after do body")
	}
	p.pos++
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	return &loopStmt{cond: cond, body: body, doWhile: true}, nil
}

func (p *parser) parseFor() (stmt, error) {
	p.pos++ // for
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	// for (k in arr)
	if p.peek().kind == tIdent && p.toks[p.pos+1].kind == tKeyword && p.toks[p.pos+1].text == "in" {
		varName := p.next().text
		p.pos++ // in
		arr := p.next()
		if arr.kind != tIdent {
			return nil, p.errf("expected array name in for-in")
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseSimpleOrBlock()
		if err != nil {
			return nil, err
		}
		return &forInStmt{v: p.bind(varName), arr: p.bind(arr.text), body: body}, nil
	}
	st := &loopStmt{}
	if !p.isOp(";") {
		init, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.init = init
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}
	if !p.isOp(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.cond = cond
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}
	if !p.isOp(")") {
		post, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.post = post
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.parseSimpleOrBlock()
	if err != nil {
		return nil, err
	}
	st.body = body
	return st, nil
}
