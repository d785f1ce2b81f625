package awkx

// Expression parsing, precedence climbing from lowest to highest:
// assignment → ternary → || → && → in → match → relational → concat →
// additive → multiplicative → unary → power → postfix → primary.

func (p *parser) parseExpr() (expr, error) { return p.parseAssign() }

// isLvalue reports whether e can be assigned to.
func isLvalue(e expr) bool {
	switch e.(type) {
	case *varRef, *fieldRef, *indexRef:
		return true
	}
	return false
}

func (p *parser) parseAssign() (expr, error) {
	left, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tOp {
		switch t.text {
		case "=", "+=", "-=", "*=", "/=", "%=", "^=":
			if !isLvalue(left) {
				return nil, p.errf("assignment to non-lvalue")
			}
			p.pos++
			right, err := p.parseAssign() // right associative
			if err != nil {
				return nil, err
			}
			return &assign{op: t.text, target: left, val: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseTernary() (expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.isOp("?") {
		return cond, nil
	}
	p.pos++
	p.skipNewlines()
	a, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	b, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &ternary{cond: cond, a: a, b: b}, nil
}

func (p *parser) parseOr() (expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isOp("||") {
		p.pos++
		p.skipNewlines()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binary{op: "||", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr, error) {
	left, err := p.parseIn()
	if err != nil {
		return nil, err
	}
	for p.isOp("&&") {
		p.pos++
		p.skipNewlines()
		right, err := p.parseIn()
		if err != nil {
			return nil, err
		}
		left = &binary{op: "&&", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseIn() (expr, error) {
	left, err := p.parseMatch()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("in") {
		p.pos++
		arr := p.next()
		if arr.kind != tIdent {
			return nil, p.errf("expected array name after in")
		}
		left = &inExpr{index: []expr{left}, arr: p.bind(arr.text)}
	}
	return left, nil
}

func (p *parser) parseMatch() (expr, error) {
	left, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.isOp("~") || p.isOp("!~") {
		neg := p.peek().text == "!~"
		p.pos++
		right, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		left = &matchExpr{neg: neg, l: left, re: right}
	}
	return left, nil
}

func (p *parser) parseRel() (expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tOp {
		op := t.text
		switch op {
		case "<", "<=", ">=", "==", "!=":
		case ">":
			if p.noGT > 0 {
				return left, nil // print redirection, not comparison
			}
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &binary{op: op, l: left, r: right}, nil
	}
	return left, nil
}

// concatStarts reports whether the next token can begin a concatenation
// operand. '+'/'-' are excluded: additive parsing owns them.
func (p *parser) concatStarts() bool {
	t := p.peek()
	switch t.kind {
	case tNumber, tString, tIdent, tFuncName, tBuiltin:
		return true
	case tOp:
		switch t.text {
		case "(", "$", "!", "++", "--":
			return true
		}
	}
	return false
}

func (p *parser) parseConcat() (expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.concatStarts() {
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &binary{op: "concat", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := p.next().text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &binary{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("%") {
		op := p.next().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binary{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (expr, error) {
	t := p.peek()
	if t.kind == tOp {
		switch t.text {
		case "!", "-", "+":
			p.pos++
			e, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &unary{op: t.text, e: e}, nil
		}
	}
	return p.parsePower()
}

func (p *parser) parsePower() (expr, error) {
	left, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.isOp("^") {
		p.pos++
		right, err := p.parseUnary() // right associative, allows 2^-3
		if err != nil {
			return nil, err
		}
		return &binary{op: "^", l: left, r: right}, nil
	}
	return left, nil
}

func (p *parser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for (p.isOp("++") || p.isOp("--")) && isLvalue(e) {
		op := p.next().text
		e = &incDec{op: op, pre: false, target: e}
	}
	return e, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.peek()
	if t.kind == tKeyword && t.text == "getline" {
		return p.parseGetline()
	}
	switch t.kind {
	case tNumber:
		p.pos++
		return &numLit{v: t.num}, nil
	case tString:
		p.pos++
		return &strLit{v: t.text}, nil
	case tRegex:
		p.pos++
		re, err := compileRegex(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &regexLit{re: re}, nil
	case tFuncName:
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		c := &call{name: t.text}
		for !p.isOp(")") {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.args = append(c.args, a)
			if p.isOp(",") {
				p.pos++
			}
		}
		p.pos++ // )
		return c, nil
	case tBuiltin:
		p.pos++
		bc := &builtinCall{name: t.text}
		if p.isOp("(") {
			p.pos++
			for !p.isOp(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				bc.args = append(bc.args, a)
				if p.isOp(",") {
					p.pos++
				}
			}
			p.pos++ // )
		} else if t.text == "length" {
			// bare `length` means length($0)
		} else {
			return nil, p.errf("%s requires arguments", t.text)
		}
		return bc, nil
	case tIdent:
		p.pos++
		if p.isOp("[") {
			p.pos++
			ir := &indexRef{arr: p.bind(t.text)}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ir.index = append(ir.index, e)
				if p.isOp(",") {
					p.pos++
					continue
				}
				break
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return ir, nil
		}
		return &varRef{t.text, p.bind(t.text)}, nil
	}
	if t.kind == tOp {
		switch t.text {
		case "(":
			p.pos++
			// Parentheses restore '>' as comparison even inside print args.
			saved := p.noGT
			p.noGT = 0
			e, err := p.parseExpr()
			p.noGT = saved
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &groupExpr{e: e}, nil
		case "$":
			p.pos++
			idx, err := p.parsePostfixDollar()
			if err != nil {
				return nil, err
			}
			return &fieldRef{idx: idx}, nil
		case "++", "--":
			p.pos++
			target, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			if !isLvalue(target) {
				return nil, p.errf("%s on non-lvalue", t.text)
			}
			return &incDec{op: t.text, pre: true, target: target}, nil
		}
	}
	return nil, p.errf("unexpected token")
}

// parseGetline parses `getline [lvalue] < file`. Only the file-redirection
// forms are supported (reading the main input mid-rule is not).
func (p *parser) parseGetline() (expr, error) {
	p.pos++ // getline
	g := &getlineExpr{}
	// Optional simple lvalue: identifier or $field.
	if t := p.peek(); t.kind == tIdent {
		p.pos++
		g.target = &varRef{t.text, p.bind(t.text)}
	} else if p.isOp("$") {
		p.pos++
		idx, err := p.parsePostfixDollar()
		if err != nil {
			return nil, err
		}
		g.target = &fieldRef{idx: idx}
	}
	if !p.isOp("<") {
		return nil, p.errf("getline requires `< filename` in this implementation")
	}
	p.pos++
	src, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	g.src = src
	return g, nil
}

// parsePostfixDollar parses the operand of `$`, which binds tighter than
// any binary operator: $NF-1 is ($NF)-1, $(i+1) uses the group.
func (p *parser) parsePostfixDollar() (expr, error) {
	t := p.peek()
	switch {
	case t.kind == tNumber:
		p.pos++
		return &numLit{v: t.num}, nil
	case t.kind == tIdent:
		p.pos++
		return &varRef{t.text, p.bind(t.text)}, nil
	case t.kind == tOp && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tOp && t.text == "$":
		p.pos++
		inner, err := p.parsePostfixDollar()
		if err != nil {
			return nil, err
		}
		return &fieldRef{idx: inner}, nil
	}
	return nil, p.errf("bad field reference")
}
