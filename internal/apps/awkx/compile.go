package awkx

import (
	"errors"
	"io"
	"math"
	"strings"

	"compstor/internal/apps"
)

// The compile step. After parse, one pass turns every statement and
// expression of the AST into a Go closure, and whatever the parser already
// knew is decided here, once: which operator, what kind of variable, what
// kind of assignment target, which builtin and whether its argument count
// fits, literal regex or dynamic, inside a loop or not. Running the program
// is calling the closures; nothing looks at the tree again. A construct that
// can only fail — break outside a loop, substr(x) — compiles to a closure
// that fails when reached, as the tree walk this replaced did.

// ctl is how a statement ended: normally, or by one of the five jumps.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlNext
	ctlReturn // the value is in interp.ret
	ctlExit   // so is the code
)

// errUnwind carries a next or an exit (interp.pending says which) out of a
// function body through the expression that called it, which can return
// only a value or an error; the rule drivers turn it back into the code.
var errUnwind = errors.New("awk: next or exit left a function")

type (
	evalFn func(*interp) (value, error)
	condFn func(*interp) (bool, error)
	execFn func(*interp) (ctl, error)
)

// code is a compiled program. A rule is its action behind its pattern.
type code struct{ begins, rules, ends []execFn }

// function is a compiled user function. Call sites hold the pointer, so a
// body may be compiled after the calls to it.
type function struct {
	name    string
	nparams int
	arrays  []bool // funcDef.arrays
	body    execFn
}

type compiler struct {
	funcs  map[string]*function
	loops  int  // loops around the statement being compiled
	inFunc bool // compiling a function body
}

func compile(p *program) *code {
	c := &compiler{inFunc: true}
	if len(p.funcs) > 0 {
		c.funcs = make(map[string]*function, len(p.funcs))
	}
	for name, fd := range p.funcs {
		c.funcs[name] = &function{name: name, nparams: len(fd.params), arrays: fd.arrays}
	}
	for name, fd := range p.funcs {
		c.funcs[name].body = c.stmt(fd.body)
	}
	c.inFunc = false
	cd := &code{}
	for _, b := range p.begins {
		cd.begins = append(cd.begins, c.stmt(b))
	}
	for _, r := range p.rules {
		if r.pattern == nil {
			cd.rules = append(cd.rules, c.stmt(r.action))
		} else {
			cd.rules = append(cd.rules, c.stmt(&ifStmt{cond: r.pattern, then: r.action}))
		}
	}
	for _, b := range p.ends {
		cd.ends = append(cd.ends, c.stmt(b))
	}
	return cd
}

// Statements ------------------------------------------------------------------

func nop(*interp) (ctl, error) { return ctlNone, nil }

// fail compiles an expression that can only fail.
func fail(format string, args ...any) evalFn {
	err := runtimeErr(format, args...)
	return func(*interp) (value, error) { return uninitialized, err }
}

func (c *compiler) stmt(s stmt) execFn {
	switch st := s.(type) {
	case nil:
		return nil
	case *stmtBlock:
		return c.block(st.stmts)
	case *exprStmt:
		if id, ok := st.e.(*incDec); ok {
			if f := c.incDecStmt(id); f != nil {
				return f
			}
		}
		e := c.expr(st.e)
		return func(in *interp) (ctl, error) {
			_, err := e(in)
			return ctlNone, err
		}
	case *printStmt:
		return c.print(st)
	case *ifStmt:
		cond, then, elze := c.cond(st.cond), c.stmt(st.then), c.stmt(st.elze)
		if elze == nil {
			elze = nop
		}
		return func(in *interp) (ctl, error) {
			ok, err := cond(in)
			switch {
			case err != nil:
				return ctlNone, err
			case ok:
				return then(in)
			}
			return elze(in)
		}
	case *loopStmt:
		return c.loop(st)
	case *forInStmt:
		return c.forIn(st)
	case *jumpStmt:
		if st.code != ctlNext && c.loops == 0 { // the error the tree walk ended with
			return c.leave(nil, ctlNone, runtimeErr("%s outside loop", [...]string{ctlBreak: "break", ctlContinue: "continue"}[st.code]))
		}
		return func(*interp) (ctl, error) { return st.code, nil }
	case *leaveStmt:
		if st.code == ctlReturn && !c.inFunc {
			return c.leave(st.val, ctlNone, runtimeErr("return outside function"))
		}
		return c.leave(st.val, st.code, nil)
	case *deleteStmt:
		key, slot := c.subscript(st.index), st.arr
		if key == nil {
			return func(in *interp) (ctl, error) {
				in.array(slot).clear()
				return ctlNone, nil
			}
		}
		return func(in *interp) (ctl, error) {
			k, err := key(in)
			if err == nil {
				in.array(slot).delete(k)
			}
			return ctlNone, err
		}
	}
	return c.leave(nil, ctlNone, runtimeErr("unknown statement %T", s))
}

// leave compiles exit and return: the value goes to interp.ret, the code to
// whoever waits for it. With misplaced, the statement evaluates and fails.
func (c *compiler) leave(val expr, code ctl, misplaced error) execFn {
	e := c.expr(val)
	return func(in *interp) (ctl, error) {
		v, err := e(in)
		if err == nil {
			err = misplaced
		}
		in.ret = v
		return code, err
	}
}

func (c *compiler) block(stmts []stmt) execFn {
	switch len(stmts) {
	case 0:
		return nop
	case 1:
		return c.stmt(stmts[0])
	}
	body := make([]execFn, len(stmts))
	for i, s := range stmts {
		body[i] = c.stmt(s)
	}
	return func(in *interp) (ctl, error) {
		for _, s := range body {
			if ct, err := s(in); ct != ctlNone || err != nil {
				return ct, err
			}
		}
		return ctlNone, nil
	}
}

// loop compiles while, do-while and for: an optional init, a condition
// (none means true) tested before each pass — for do-while, before each
// pass but the first, which is the same as after each — and an optional
// post statement.
func (c *compiler) loop(st *loopStmt) execFn {
	init, post, doWhile := c.stmt(st.init), c.stmt(st.post), st.doWhile
	var cond condFn
	if st.cond != nil {
		cond = c.cond(st.cond)
	}
	c.loops++
	body := c.stmt(st.body)
	c.loops--
	return func(in *interp) (ctl, error) {
		if init != nil {
			if ct, err := init(in); ct != ctlNone || err != nil {
				return ct, err
			}
		}
		for first := true; ; first = false {
			if err := in.step(); err != nil {
				return ctlNone, err
			}
			if cond != nil && !(doWhile && first) {
				if ok, err := cond(in); err != nil || !ok {
					return ctlNone, err
				}
			}
			switch ct, err := body(in); {
			case err != nil || ct == ctlBreak:
				return ctlNone, err
			case ct > ctlContinue:
				return ct, nil
			}
			if post != nil {
				if ct, err := post(in); ct != ctlNone || err != nil {
					return ct, err
				}
			}
		}
	}
}

// forIn visits the keys live at loop entry, once each, in the order they
// were first inserted. Cells only move when the array is compacted, which a
// loop in progress holds off, so the loop needs no copy of the keys: it
// walks the positions that existed at entry, and the cells' epochs tell a
// key its own body deleted (still visited) from one already gone.
func (c *compiler) forIn(st *forInStmt) execFn {
	key, slot := c.target(&varRef{varSlot: st.v}), st.arr
	c.loops++
	body := c.stmt(st.body)
	c.loops--
	return func(in *interp) (ct ctl, err error) {
		arr := in.array(slot)
		arr.epoch++
		arr.loops++
		epoch, n := arr.epoch, len(arr.cells)
		for i := 0; i < n && err == nil && ct != ctlBreak && ct <= ctlContinue; i++ {
			if cell := &arr.cells[i]; cell.diedAt == 0 || cell.diedAt > epoch {
				if err = in.step(); err == nil {
					err = key.set(in, place{}, inputStr(cell.key))
				}
				if err == nil {
					ct, err = body(in)
				}
			}
		}
		arr.loops--
		arr.compact()
		if ct <= ctlContinue {
			ct = ctlNone
		}
		return ct, err
	}
}

// print compiles print and printf. What is printed goes out in one Write,
// which is what a redirected file is charged by.
func (c *compiler) print(st *printStmt) execFn {
	args, formatted := c.exprs(st.args), st.formatted
	var dest evalFn // nil = stdout
	if st.dest != nil {
		dest = c.expr(st.dest)
	}
	return func(in *interp) (ctl, error) {
		w := in.out
		if dest != nil {
			name, err := dest(in)
			if err == nil {
				w, err = in.outFile(name.Str())
			}
			if err != nil {
				return ctlNone, err
			}
		}
		base, err := in.push(args)
		if err != nil {
			return ctlNone, err
		}
		var line string
		switch vals := in.stack[base:]; {
		case formatted:
			line, err = in.sprintf(vals[0].Str(), vals[1:])
		case len(vals) == 0:
			err = in.ensureRecord()
			line = in.record + in.ors()
		default:
			var sb strings.Builder
			for i, v := range vals {
				if i > 0 {
					sb.WriteString(in.ofs())
				}
				sb.WriteString(v.Str())
			}
			sb.WriteString(in.ors())
			line = sb.String()
		}
		in.stack = in.stack[:base]
		if err == nil {
			_, err = io.WriteString(w, line)
		}
		return ctlNone, err
	}
}

// Expressions -----------------------------------------------------------------

// An operator is resolved from its spelling to what it does once, here.
var arithmetic = map[string]func(a, b float64) float64{
	"+": func(a, b float64) float64 { return a + b },
	"-": func(a, b float64) float64 { return a - b },
	"*": func(a, b float64) float64 { return a * b },
	"/": func(a, b float64) float64 { return a / b },
	"%": math.Mod,
	"^": math.Pow,
}

// comparisons say which results of compare an operator accepts.
var comparisons = map[string]func(c int) bool{
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
	"==": func(c int) bool { return c == 0 },
	"!=": func(c int) bool { return c != 0 },
}

func constant(v value) evalFn { return func(*interp) (value, error) { return v, nil } }

func (c *compiler) exprs(es []expr) []evalFn {
	fs := make([]evalFn, len(es))
	for i, e := range es {
		fs[i] = c.expr(e)
	}
	return fs
}

func (c *compiler) expr(e expr) evalFn {
	switch ex := e.(type) {
	case nil: // an optional operand left out: `exit`, `return`
		return constant(uninitialized)
	case *numLit:
		return constant(num(ex.v))
	case *strLit:
		return constant(str(ex.v))
	case *groupExpr:
		return c.expr(ex.e)
	case *varRef:
		if s := ex.varSlot; plainGlobal(s) {
			return func(in *interp) (value, error) { return in.globals[s.idx], nil }
		}
		if ex.varSlot == (varSlot{idx: slotNF}) { // every loop over fields tests it
			return func(in *interp) (value, error) {
				in.ensureFields()
				return num(float64(len(in.fields))), nil
			}
		}
		return func(in *interp) (value, error) { return in.getVar(ex.varSlot), nil }
	case *fieldRef:
		if vr, ok := ex.idx.(*varRef); ok && plainGlobal(vr.varSlot) { // $i, without a call for i
			return func(in *interp) (value, error) { return in.getField(int(in.globals[vr.idx].Num())) }
		}
		idx := c.expr(ex.idx)
		return func(in *interp) (value, error) {
			v, err := idx(in)
			if err != nil {
				return uninitialized, err
			}
			return in.getField(int(v.Num()))
		}
	case *indexRef: // reading x[k] creates the element, as in awk
		t := c.target(e)
		return func(in *interp) (value, error) {
			p, err := t.at(in)
			if err != nil {
				return uninitialized, err
			}
			if p.pos < 0 {
				p.arr.insert(p.key, uninitialized)
			}
			return t.get(in, p), nil
		}
	case *assign:
		return c.update(ex.target, c.expr(ex.val), arithmetic[strings.TrimSuffix(ex.op, "=")], false)
	case *incDec:
		return c.update(ex.target, constant(num(1)), arithmetic[ex.op[:1]], !ex.pre)
	case *binary:
		if f, ok := arithmetic[ex.op]; ok || ex.op == "concat" {
			return c.binary(ex, f)
		}
	case *unary:
		if ex.op != "!" {
			operand, neg := c.expr(ex.e), ex.op == "-"
			return func(in *interp) (value, error) {
				v, err := operand(in)
				if neg {
					return num(-v.Num()), err
				}
				return num(v.Num()), err
			}
		}
	case *ternary:
		cond, a, b := c.cond(ex.cond), c.expr(ex.a), c.expr(ex.b)
		return func(in *interp) (value, error) {
			ok, err := cond(in)
			switch {
			case err != nil:
				return uninitialized, err
			case ok:
				return a(in)
			}
			return b(in)
		}
	case *call:
		return c.call(ex)
	case *builtinCall:
		return c.builtin(ex)
	case *getlineExpr:
		return c.getline(ex)
	case *regexLit, *matchExpr, *inExpr:
	default:
		return fail("unknown expression %T", e)
	}
	// What is left is a truth value: a comparison, &&, ||, !, /re/, ~, in.
	cond := c.cond(e)
	return func(in *interp) (value, error) {
		ok, err := cond(in)
		return boolNum(ok), err
	}
}

// binary compiles arithmetic, or with no f concatenation.
func (c *compiler) binary(ex *binary, f func(a, b float64) float64) evalFn {
	l, r := c.expr(ex.l), c.expr(ex.r)
	return func(in *interp) (value, error) {
		a, err := l(in)
		if err != nil {
			return uninitialized, err
		}
		b, err := r(in)
		if err != nil {
			return uninitialized, err
		}
		if f == nil {
			return concat(a.Str(), b.Str())
		}
		return num(f(a.Num(), b.Num())), nil
	}
}

// cond compiles an expression evaluated for its truth: comparisons, the
// logical operators, matches and `in` yield the bool itself, never the 0 or
// 1 a caller would only test again.
func (c *compiler) cond(e expr) condFn {
	switch ex := e.(type) {
	case *groupExpr:
		return c.cond(ex.e)
	case *regexLit: // a bare /re/ matches against $0
		return func(in *interp) (bool, error) {
			err := in.ensureRecord()
			return ex.re.re.MatchLine([]byte(in.record)), err
		}
	case *unary:
		if ex.op == "!" {
			operand := c.cond(ex.e)
			return func(in *interp) (bool, error) {
				ok, err := operand(in)
				return !ok, err
			}
		}
	case *binary:
		switch holds := comparisons[ex.op]; {
		case ex.op == "&&" || ex.op == "||":
			// Short circuit: a false left side decides &&, a true one ||.
			l, r, decides := c.cond(ex.l), c.cond(ex.r), ex.op == "||"
			return func(in *interp) (bool, error) {
				if ok, err := l(in); err != nil || ok == decides {
					return ok, err
				}
				return r(in)
			}
		case holds != nil:
			l, r := c.expr(ex.l), c.expr(ex.r)
			return func(in *interp) (bool, error) {
				a, err := l(in)
				if err != nil {
					return false, err
				}
				b, err := r(in)
				if err != nil {
					return false, err
				}
				if a.kind == isNum && b.kind == isNum { // no strnum to look at
					return holds(compareNum(a.n, b.n)), nil
				}
				return holds(compare(a, b)), nil
			}
		case arithmetic[ex.op] == nil && ex.op != "concat":
			return func(*interp) (bool, error) { return false, runtimeErr("unknown operator %q", ex.op) }
		}
	case *matchExpr:
		l, re, neg := c.expr(ex.l), c.regex(ex.re), ex.neg
		return func(in *interp) (bool, error) {
			s, err := l(in)
			if err != nil {
				return false, err
			}
			m, err := re(in)
			if err != nil {
				return false, err
			}
			return m.re.MatchLine([]byte(s.Str())) != neg, nil
		}
	case *inExpr:
		key, slot := c.subscript(ex.index), ex.arr
		return func(in *interp) (bool, error) {
			k, err := key(in)
			return err == nil && in.array(slot).find(k) >= 0, err
		}
	}
	v := c.expr(e)
	return func(in *interp) (bool, error) {
		x, err := v(in)
		return x.Bool(), err
	}
}

// regex compiles a regex-position operand: a literal is the compiled
// pattern itself, anything else a string compiled (and cached) when run.
func (c *compiler) regex(e expr) func(*interp) (*compiledRegex, error) {
	if rl, ok := e.(*regexLit); ok {
		return func(*interp) (*compiledRegex, error) { return rl.re, nil }
	}
	src := c.expr(e)
	return func(in *interp) (*compiledRegex, error) {
		v, err := src(in)
		if err != nil {
			return nil, err
		}
		return in.regex(v.Str())
	}
}

// subscript compiles an array subscript to its key: the value's string, or
// for several values their strings joined by SUBSEP. No subscript, no closure.
func (c *compiler) subscript(index []expr) func(*interp) (string, error) {
	switch len(index) {
	case 0:
		return nil
	case 1:
		only := c.expr(index[0])
		return func(in *interp) (string, error) {
			v, err := only(in)
			return v.Str(), err
		}
	}
	parts := c.exprs(index)
	return func(in *interp) (string, error) {
		var key strings.Builder
		for i, p := range parts {
			v, err := p(in)
			if err != nil {
				return "", err
			}
			if i > 0 {
				key.WriteString(in.globals[slotSUBSEP].Str())
			}
			key.WriteString(v.Str())
		}
		return key.String(), nil
	}
}

// Assignment targets ----------------------------------------------------------

// place is an assignment target with its subscripts or field index already
// evaluated. Resolving a target once and then reading and writing through
// the result is what makes `a[i++]++` advance i once. An element that does
// not exist yet has pos -1 and is inserted by set, not by get: reading a[k]
// creates nothing. Nothing may run between at and set that could delete
// from arr, or pos would go stale.
type place struct {
	arr *array // of an element
	key string
	pos int // of key's cell in arr, or -1; of a field, its number
}

// target is a compiled variable, field or element: at resolves it, get and
// set read and write what at found.
type target struct {
	at  func(*interp) (place, error)
	get func(*interp, place) value
	set func(*interp, place, value) error
}

func noPlace(*interp) (place, error) { return place{}, nil }

// plainGlobal reports whether s is a global the interpreter keeps in
// globals and nowhere else: not a parameter, not NR, not NF.
func plainGlobal(s varSlot) bool { return !s.local && s.idx != slotNR && s.idx != slotNF }

func (c *compiler) target(e expr) target {
	switch t := e.(type) {
	case *varRef:
		s := t.varSlot
		if plainGlobal(s) {
			return target{noPlace,
				func(in *interp, _ place) value { return in.globals[s.idx] },
				func(in *interp, _ place, v value) error { in.globals[s.idx] = v; return nil }}
		}
		return target{noPlace,
			func(in *interp, _ place) value { return in.getVar(s) },
			func(in *interp, _ place, v value) error { return in.setVar(s, v) }}
	case *fieldRef:
		idx := c.expr(t.idx)
		return target{
			func(in *interp) (place, error) {
				v, err := idx(in)
				if err == nil && int(v.Num()) == 0 {
					err = in.ensureRecord() // so that get cannot fail
				}
				return place{pos: int(v.Num())}, err
			},
			func(in *interp, p place) value { v, _ := in.getField(p.pos); return v },
			func(in *interp, p place, v value) error { return in.setField(p.pos, v) }}
	case *indexRef:
		key, slot := c.subscript(t.index), t.arr
		return target{
			func(in *interp) (place, error) {
				k, err := key(in)
				if err != nil {
					return place{}, err
				}
				arr := in.array(slot)
				return place{arr, k, int(arr.find(k))}, nil
			},
			func(in *interp, p place) value {
				if p.pos < 0 {
					return uninitialized
				}
				return p.arr.cells[p.pos].val
			},
			func(in *interp, p place, v value) error {
				if p.pos < 0 {
					p.arr.insert(p.key, v)
				} else {
					p.arr.cells[p.pos].val = v
				}
				return nil
			}}
	}
	err := runtimeErr("assignment to non-lvalue %T", e)
	return target{at: func(*interp) (place, error) { return place{}, err }}
}

// update compiles every assignment: `t = e`, `t op= e` with f the op, and
// ++ and -- as op= 1, where post makes the result the value replaced.
func (c *compiler) update(dst expr, rhs evalFn, f func(a, b float64) float64, post bool) evalFn {
	t := c.target(dst)
	return func(in *interp) (value, error) {
		v, err := rhs(in)
		if err != nil {
			return uninitialized, err
		}
		p, err := t.at(in)
		if err != nil {
			return uninitialized, err
		}
		old := uninitialized
		if f != nil {
			old = num(t.get(in, p).Num())
			v = num(f(old.n, v.Num()))
		}
		if err = t.set(in, p, v); post {
			return old, err
		}
		return v, err
	}
}

// incDecStmt compiles `x++` and `a[k]++` as statements, the form counting
// loops and tallies are made of: the value no one reads is never built, and
// a number is bumped where it lies. Nil for any other target.
func (c *compiler) incDecStmt(ex *incDec) execFn {
	delta := 1.0
	if ex.op == "--" {
		delta = -1
	}
	switch t := ex.target.(type) {
	case *varRef:
		if s := t.varSlot; plainGlobal(s) {
			return func(in *interp) (ctl, error) {
				in.globals[s.idx].add(delta)
				return ctlNone, nil
			}
		}
	case *indexRef:
		key, slot := c.subscript(t.index), t.arr
		return func(in *interp) (ctl, error) {
			k, err := key(in)
			if err != nil {
				return ctlNone, err
			}
			arr := in.array(slot)
			if pos := arr.find(k); pos >= 0 {
				arr.cells[pos].val.add(delta)
			} else {
				arr.insert(k, num(delta))
			}
			return ctlNone, nil
		}
	}
	return nil
}

// add makes v the number v.Num() + d.
func (v *value) add(d float64) {
	if v.kind == isNum {
		v.n += d
	} else {
		*v = num(v.Num() + d)
	}
}

// Calls -----------------------------------------------------------------------

func (c *compiler) call(ex *call) evalFn {
	fn, ok := c.funcs[ex.name]
	switch {
	case !ok:
		return fail("call to undefined function %s", ex.name)
	case len(ex.args) > fn.nparams:
		return fail("%s called with %d args, defined with %d", ex.name, len(ex.args), fn.nparams)
	}
	args, names := c.exprs(ex.args), make([]*varRef, len(ex.args))
	for i, a := range ex.args {
		names[i], _ = a.(*varRef)
	}
	return func(in *interp) (value, error) {
		fr := frame{scalars: make([]value, fn.nparams)}
		// Bind arguments in the caller's scope before pushing the frame. A
		// bare name passes its array if it is one or the parameter is one.
		for i, arg := range args {
			if vr := names[i]; vr != nil && (fn.arrays[i] || in.isArray(vr.varSlot)) {
				if fr.arrays == nil {
					fr.arrays = make([]*array, fn.nparams)
				}
				fr.arrays[i] = in.array(vr.varSlot)
				continue
			}
			v, err := arg(in)
			if err != nil {
				return uninitialized, err
			}
			fr.scalars[i] = v
		}
		if len(in.frames) > 200 {
			return uninitialized, runtimeErr("call stack overflow in %s", fn.name)
		}
		if err := in.step(); err != nil {
			return uninitialized, err
		}
		in.frames = append(in.frames, fr)
		ct, err := fn.body(in)
		in.frames = in.frames[:len(in.frames)-1]
		switch {
		case err != nil:
			return uninitialized, err
		case ct == ctlReturn:
			return in.ret, nil
		case ct != ctlNone: // next or exit: unwind to the rule
			in.pending = ct
			return uninitialized, errUnwind
		}
		return uninitialized, nil
	}
}

// getline compiles `getline [lvalue] < file`: 1 on a line read, 0 at EOF,
// -1 when the file cannot be opened or read.
func (c *compiler) getline(ex *getlineExpr) evalFn {
	src, t := c.expr(ex.src), c.target(&fieldRef{idx: &numLit{}})
	if ex.target != nil {
		t = c.target(ex.target)
	}
	return func(in *interp) (value, error) {
		sv, err := src(in)
		if err != nil {
			return uninitialized, err
		}
		r, ok := in.readers[sv.Str()]
		if !ok {
			if in.openRead == nil {
				return uninitialized, runtimeErr("getline unavailable in this context")
			}
			in.impure = true
			f, err := in.openRead(sv.Str())
			if err != nil {
				return num(-1), nil
			}
			blk := apps.GetBlock()
			r = &getlineReader{c: f, sc: apps.NewLineScanner(f, blk), blk: blk}
			in.readers[sv.Str()] = r
		}
		if !r.sc.Scan() {
			if r.sc.Err() != nil {
				return num(-1), nil
			}
			return num(0), nil
		}
		p, err := t.at(in)
		if err != nil {
			return uninitialized, err
		}
		return num(1), t.set(in, p, inputStr(r.sc.Text()))
	}
}
