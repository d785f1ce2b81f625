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

	fn      *funcDef       // the function being parsed; outside one, one without parameters
	globals map[string]int // global name -> slot
}

func parse(src string) (*program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, globals: make(map[string]int), fn: &funcDef{}}
	for i, name := range specialNames {
		p.globals[name] = i
	}
	return p.parseProgram()
}

// bind resolves a variable name to its slot, giving a global its slot on
// first mention. A parameter used as an array is marked as one.
func (p *parser) bind(name string, array bool) varSlot {
	for i, param := range p.fn.params {
		if param == name {
			p.fn.arrays[i] = p.fn.arrays[i] || array
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
		case p.isKeyword("BEGIN"), p.isKeyword("END"):
			blocks := &prog.begins
			if p.next().text == "END" {
				blocks = &prog.ends
			}
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			*blocks = append(*blocks, blk)
		default:
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			prog.rules = append(prog.rules, r)
		}
		p.skipNewlines()
	}
	// A parameter passed on as an array parameter is an array too; a round
	// per function reaches the end of every chain of calls.
	for range prog.funcs {
		for _, fd := range prog.funcs {
			for _, c := range fd.calls {
				g := prog.funcs[c.name]
				for i, a := range c.args {
					if vr, ok := a.(*varRef); ok && vr.local && g != nil && i < len(g.arrays) && g.arrays[i] {
						fd.arrays[vr.idx] = true
					}
				}
			}
		}
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
	var err error
	fd.arrays, p.fn = make([]bool, len(fd.params)), fd
	fd.body, err = p.parseBlock()
	p.fn = &funcDef{}
	return fd, err
}

func (p *parser) parseRule() (rule, error) {
	// Without an action a pattern prints $0.
	r, err := rule{action: &stmtBlock{stmts: []stmt{&printStmt{}}}}, error(nil)
	if !p.isOp("{") {
		r.pattern, err = p.parseExpr()
	}
	if err == nil && p.isOp("{") {
		r.action, err = p.parseBlock()
	}
	return r, err
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

var jumps = map[string]ctl{"break": ctlBreak, "continue": ctlContinue, "next": ctlNext, "exit": ctlExit, "return": ctlReturn}

func (p *parser) parseStmt() (stmt, error) {
	t := p.peek()
	if t.kind == tKeyword {
		switch t.text {
		case "print", "printf":
			p.pos++
			return p.parsePrint(t.text == "printf")
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDo()
		case "for":
			return p.parseFor()
		case "break", "continue", "next":
			p.pos++
			return &jumpStmt{code: jumps[t.text]}, nil
		case "exit", "return":
			p.pos++
			st := &leaveStmt{code: jumps[t.text]}
			if !p.startsExpr() {
				return st, nil
			}
			var err error
			st.val, err = p.parseExpr()
			return st, err
		case "delete":
			p.pos++
			name := p.next()
			if name.kind != tIdent && name.kind != tFuncName {
				return nil, p.errf("expected array name after delete")
			}
			ds := &deleteStmt{arr: p.bind(name.text, true)}
			if !p.isOp("[") {
				return ds, nil
			}
			var err error
			ds.index, err = p.parseSubscripts()
			return ds, err
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
	if formatted && len(args) == 0 {
		return nil, p.errf("printf needs a format")
	}
	return &printStmt{args: args, dest: dest, formatted: formatted}, nil
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
	if !p.isKeyword("else") {
		p.pos = save
		return st, nil
	}
	p.pos++
	st.elze, err = p.parseSimpleOrBlock()
	return st, err
}

func (p *parser) parseWhile() (stmt, error) {
	p.pos++ // while
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	body, err := p.parseSimpleOrBlock()
	return &loopStmt{cond: cond, body: body}, err
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
	return &loopStmt{cond: cond, body: body, doWhile: true}, err
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
		return &forInStmt{v: p.bind(varName, false), arr: p.bind(arr.text, true), body: body}, err
	}
	// Each of init, cond and post may be left out.
	st, err := &loopStmt{}, error(nil)
	if !p.isOp(";") {
		st.init, err = p.parseStmt()
	}
	if err == nil {
		err = p.expectOp(";")
	}
	if err == nil && !p.isOp(";") {
		st.cond, err = p.parseExpr()
	}
	if err == nil {
		err = p.expectOp(";")
	}
	if err == nil && !p.isOp(")") {
		st.post, err = p.parseStmt()
	}
	if err == nil {
		err = p.expectOp(")")
	}
	if err == nil {
		st.body, err = p.parseSimpleOrBlock()
	}
	return st, err
}
