package awkx

// Expression parsing, from loosest to tightest: assignment → ternary → the
// binary operators (|| → && → in → match → relational → concat → additive
// → multiplicative) → unary → power → postfix → primary.

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
			return &assign{op: t.text, target: left, val: right}, err
		}
	}
	return left, nil
}

func (p *parser) parseTernary() (expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.isOp("?") {
		return cond, nil
	}
	p.pos++
	p.skipNewlines()
	a, err := p.parseTernary()
	if err == nil {
		err = p.expectOp(":")
	}
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	b, err := p.parseTernary()
	return &ternary{cond: cond, a: a, b: b}, err
}

// precedence orders the binary operators, loosest first; "concat" is
// juxtaposition.
var precedence = map[string]int{
	"||": 1, "&&": 2, "in": 3, "~": 4, "!~": 4,
	"<": 5, "<=": 5, ">": 5, ">=": 5, "==": 5, "!=": 5,
	"concat": 6, "+": 7, "-": 7, "*": 8, "/": 8, "%": 8,
}

const (
	precMatch, precRel, precConcat = 4, 5, 6
)

// binaryOp reports the binary operator at the cursor and its precedence, 0
// for none. While '>' means print redirection it is no operator; and what
// can start an operand where one just ended is a concatenation.
func (p *parser) binaryOp() (string, int) {
	t := p.peek()
	switch {
	case t.kind == tKeyword && t.text == "in",
		t.kind == tOp && precedence[t.text] > 0 && !(t.text == ">" && p.noGT > 0):
		return t.text, precedence[t.text]
	case p.concatStarts():
		return "concat", precConcat
	}
	return "", 0
}

// concatStarts reports whether the next token can begin a concatenation
// operand. '+'/'-' are excluded, which are additive there, and a regex.
func (p *parser) concatStarts() bool {
	t := p.peek()
	return p.startsExpr() && t.kind != tRegex && !(t.kind == tOp && (t.text == "-" || t.text == "+"))
}

// parseBinary parses the binary operators of precedence min and tighter by
// precedence climbing. All are left associative, except that comparisons do
// not chain; and once a level has been left it is not entered again, so
// `k in a < 1` stops before the '<'.
func (p *parser) parseBinary(min int) (expr, error) {
	left, err := p.parseUnary()
	for max := len(precedence); err == nil; {
		op, prec := p.binaryOp()
		if prec < min || prec > max || prec == 0 {
			break
		}
		if max = prec; prec == precRel {
			max--
		}
		if op != "concat" {
			p.pos++
		}
		if op == "||" || op == "&&" {
			p.skipNewlines()
		}
		if op == "in" {
			arr := p.next()
			if arr.kind != tIdent {
				return nil, p.errf("expected array name after in")
			}
			left = &inExpr{index: []expr{left}, arr: p.bind(arr.text, true)}
			continue
		}
		var right expr
		if right, err = p.parseBinary(prec + 1); prec == precMatch {
			left = &matchExpr{neg: op == "!~", l: left, re: right}
		} else {
			left = &binary{op: op, l: left, r: right}
		}
	}
	return left, err
}

func (p *parser) parseUnary() (expr, error) {
	t := p.peek()
	if t.kind == tOp {
		switch t.text {
		case "!", "-", "+":
			p.pos++
			e, err := p.parseUnary()
			return &unary{op: t.text, e: e}, err
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
		return &binary{op: "^", l: left, r: right}, err
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
		args, err := p.parseArgs()
		c := &call{name: t.text, args: args}
		p.fn.calls = append(p.fn.calls, c)
		return c, err
	case tBuiltin:
		p.pos++
		if !p.isOp("(") && t.text != "length" { // bare `length` means length($0)
			return nil, p.errf("%s requires arguments", t.text)
		}
		bc := &builtinCall{name: t.text}
		if p.isOp("(") {
			p.pos++
			var err error
			if bc.args, err = p.parseArgs(); err != nil {
				return nil, err
			}
			if t.text == "split" && len(bc.args) > 1 {
				if vr, ok := bc.args[1].(*varRef); ok {
					p.bind(vr.name, true)
				}
			}
		}
		return bc, nil
	case tIdent:
		p.pos++
		if p.isOp("[") {
			arr := p.bind(t.text, true)
			index, err := p.parseSubscripts()
			return &indexRef{arr: arr, index: index}, err
		}
		return &varRef{name: t.text, varSlot: p.bind(t.text, false)}, nil
	}
	if t.kind == tOp {
		switch t.text {
		case "(":
			p.pos++
			// Parentheses restore '>' as comparison even inside print args.
			saved := p.noGT
			p.noGT = 0
			e, err := p.parseExpr()
			if p.noGT = saved; err == nil {
				err = p.expectOp(")")
			}
			return &groupExpr{e: e}, err
		case "$":
			p.pos++
			idx, err := p.parsePostfixDollar()
			return &fieldRef{idx: idx}, err
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

// parseArgs parses a call's arguments, the opening parenthesis behind it.
func (p *parser) parseArgs() (args []expr, err error) {
	for !p.isOp(")") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.isOp(",") {
			p.pos++
		}
	}
	p.pos++ // )
	return args, nil
}

// parseSubscripts parses `[e, e...]`, the cursor at the bracket.
func (p *parser) parseSubscripts() (index []expr, err error) {
	for p.pos++; ; p.pos++ {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if index = append(index, e); !p.isOp(",") {
			return index, p.expectOp("]")
		}
	}
}

// parseGetline parses `getline [lvalue] < file`. Only the file-redirection
// forms are supported (reading the main input mid-rule is not).
func (p *parser) parseGetline() (expr, error) {
	p.pos++ // getline
	g := &getlineExpr{}
	// Optional simple lvalue: identifier or $field.
	if t := p.peek(); t.kind == tIdent {
		p.pos++
		g.target = &varRef{name: t.text, varSlot: p.bind(t.text, false)}
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
	var err error
	g.src, err = p.parseBinary(precConcat)
	return g, err
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
		return &varRef{name: t.text, varSlot: p.bind(t.text, false)}, nil
	case t.kind == tOp && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err == nil {
			err = p.expectOp(")")
		}
		return e, err
	case t.kind == tOp && t.text == "$":
		p.pos++
		inner, err := p.parsePostfixDollar()
		return &fieldRef{idx: inner}, err
	}
	return nil, p.errf("bad field reference")
}
