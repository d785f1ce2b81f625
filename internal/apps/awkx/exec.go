package awkx

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"compstor/internal/apps"
)

// execBlock runs a statement block.
func (in *interp) execBlock(b *stmtBlock) error {
	for _, s := range b.stmts {
		if err := in.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) exec(s stmt) error {
	switch st := s.(type) {
	case *stmtBlock:
		return in.execBlock(st)
	case *exprStmt:
		_, err := in.eval(st.e)
		return err
	case *printStmt:
		return in.execPrint(st)
	case *printfStmt:
		return in.execPrintf(st)
	case *ifStmt:
		cond, err := in.eval(st.cond)
		if err != nil {
			return err
		}
		if cond.Bool() {
			return in.exec(st.then)
		}
		if st.elze != nil {
			return in.exec(st.elze)
		}
		return nil
	case *loopStmt:
		return in.execLoop(st)
	case *forInStmt:
		return in.execForIn(st)
	case *breakStmt:
		return errBreak
	case *continueStmt:
		return errContinue
	case *nextStmt:
		return errNext
	case *exitStmt:
		v, err := in.eval(st.code)
		if err != nil {
			return err
		}
		return exitSignal{code: int(v.Num())}
	case *returnStmt:
		v, err := in.eval(st.val)
		if err != nil {
			return err
		}
		return returnSignal{val: v}
	case *deleteStmt:
		if st.index == nil {
			in.array(st.arr).clear()
			return nil
		}
		key, err := in.subscript(st.index)
		if err != nil {
			return err
		}
		in.array(st.arr).delete(key)
		return nil
	}
	return runtimeErr("unknown statement %T", s)
}

func loopErr(err error) (done bool, rerr error) {
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errBreak):
		return true, nil
	case errors.Is(err, errContinue):
		return false, nil
	default:
		return true, err
	}
}

// execLoop runs while, do-while and for: an optional init, a condition
// (none means true) tested before each pass — for do-while, before each
// pass but the first, which is the same as after each — and an optional
// post statement.
func (in *interp) execLoop(st *loopStmt) error {
	if st.init != nil {
		if err := in.exec(st.init); err != nil {
			return err
		}
	}
	const maxIter = 100_000_000 // runaway-loop guard
	for i := 0; i < maxIter; i++ {
		if st.cond != nil && !(st.doWhile && i == 0) {
			cond, err := in.eval(st.cond)
			if err != nil {
				return err
			}
			if !cond.Bool() {
				return nil
			}
		}
		if done, err := loopErr(in.exec(st.body)); done || err != nil {
			return err
		}
		if st.post != nil {
			if err := in.exec(st.post); err != nil {
				return err
			}
		}
	}
	return runtimeErr("loop iteration limit exceeded")
}

// execForIn visits the keys live at loop entry, once each, in the order
// they were first inserted. Cells only move when the array is compacted,
// which a loop in progress holds off, so the loop needs no copy of the
// keys: it walks the positions that existed at entry, and the cells' epochs
// tell a key its own body deleted (still visited) from one already gone.
func (in *interp) execForIn(st *forInStmt) error {
	arr := in.array(st.arr)
	arr.epoch++
	arr.loops++
	epoch, n := arr.epoch, len(arr.cells)
	var err error
	for i, done := 0, false; i < n && !done; i++ {
		if c := &arr.cells[i]; c.diedAt == 0 || c.diedAt > epoch {
			in.setVar(st.v, inputStr(c.key))
			done, err = loopErr(in.exec(st.body)) // done on break and on error
		}
	}
	arr.loops--
	arr.compact()
	return err
}

// printDest resolves the output writer for print/printf redirection.
func (in *interp) printDest(dest expr) (io.Writer, error) {
	if dest == nil {
		return in.out, nil
	}
	v, err := in.eval(dest)
	if err != nil {
		return nil, err
	}
	name := v.Str()
	if f, ok := in.files[name]; ok {
		return f, nil
	}
	if in.openFile == nil {
		return nil, runtimeErr("print redirection unavailable in this context")
	}
	f, err := in.openFile(name)
	if err != nil {
		return nil, runtimeErr("cannot open %q: %v", name, err)
	}
	in.files[name] = f
	return f, nil
}

func (in *interp) execPrint(st *printStmt) error {
	w, err := in.printDest(st.dest)
	if err != nil {
		return err
	}
	if len(st.args) == 0 {
		in.ensureRecord()
		_, err := fmt.Fprintf(w, "%s%s", in.record, in.ors())
		return err
	}
	parts := make([]string, len(st.args))
	for i, a := range st.args {
		v, err := in.eval(a)
		if err != nil {
			return err
		}
		parts[i] = v.Str()
	}
	_, err = fmt.Fprintf(w, "%s%s", strings.Join(parts, in.ofs()), in.ors())
	return err
}

func (in *interp) execPrintf(st *printfStmt) error {
	w, err := in.printDest(st.dest)
	if err != nil {
		return err
	}
	vals, err := in.evalAll(st.args)
	if err != nil {
		return err
	}
	s, err := in.sprintf(vals[0].Str(), vals[1:])
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// Expression evaluation -------------------------------------------------------

func (in *interp) evalAll(es []expr) ([]value, error) {
	out := make([]value, len(es))
	for i, e := range es {
		v, err := in.eval(e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (in *interp) eval(e expr) (value, error) {
	switch ex := e.(type) {
	case nil: // an optional operand left out: `exit`, `return`
		return uninitialized, nil
	case *numLit:
		return num(ex.v), nil
	case *strLit:
		return str(ex.v), nil
	case *regexLit:
		// A bare /re/ matches against $0, yielding 0/1.
		in.ensureRecord()
		return boolNum(ex.re.re.MatchLine([]byte(in.record))), nil
	case *groupExpr:
		return in.eval(ex.e)
	case *varRef:
		return in.getVar(ex.varSlot), nil
	case *fieldRef:
		idx, err := in.eval(ex.idx)
		if err != nil {
			return uninitialized, err
		}
		return in.getField(int(idx.Num())), nil
	case *indexRef:
		lv, err := in.lvalueOf(ex)
		if err != nil {
			return uninitialized, err
		}
		return in.load(lv), nil
	case *assign:
		return in.evalAssign(ex)
	case *incDec:
		return in.evalIncDec(ex)
	case *binary:
		return in.evalBinary(ex)
	case *unary:
		v, err := in.eval(ex.e)
		if err != nil {
			return uninitialized, err
		}
		switch ex.op {
		case "!":
			return boolNum(!v.Bool()), nil
		case "-":
			return num(-v.Num()), nil
		default:
			return num(v.Num()), nil
		}
	case *ternary:
		cond, err := in.eval(ex.cond)
		if err != nil {
			return uninitialized, err
		}
		if cond.Bool() {
			return in.eval(ex.a)
		}
		return in.eval(ex.b)
	case *matchExpr:
		return in.evalMatch(ex)
	case *inExpr:
		key, err := in.subscript(ex.index)
		if err != nil {
			return uninitialized, err
		}
		return boolNum(in.array(ex.arr).find(key) >= 0), nil
	case *call:
		return in.evalCall(ex)
	case *builtinCall:
		return in.evalBuiltin(ex)
	case *getlineExpr:
		return in.evalGetline(ex)
	}
	return uninitialized, runtimeErr("unknown expression %T", e)
}

// lvalue is an assignment target with its subscripts or field index already
// evaluated. Resolving a target once and then reading and writing through
// the result is what makes `a[i++]++` advance i once. An element that does
// not exist yet has pos -1 and is inserted by store, not by load: reading
// a[k] creates nothing. Nothing may run between lvalueOf and store that
// could delete from arr, or pos would go stale.
type lvalue struct {
	kind lvalueKind
	slot varSlot // lvVar; for lvField, idx is the field number
	arr  *array  // lvElem
	key  string
	pos  int32 // of key's cell in arr, or -1
}

type lvalueKind uint8

const (
	lvVar lvalueKind = iota
	lvField
	lvElem
)

func (in *interp) lvalueOf(target expr) (lvalue, error) {
	switch t := target.(type) {
	case *varRef:
		return lvalue{kind: lvVar, slot: t.varSlot}, nil
	case *fieldRef:
		idx, err := in.eval(t.idx)
		return lvalue{kind: lvField, slot: varSlot{idx: int(idx.Num())}}, err
	case *indexRef:
		key, err := in.subscript(t.index)
		if err != nil {
			return lvalue{}, err
		}
		arr := in.array(t.arr)
		return lvalue{kind: lvElem, arr: arr, key: key, pos: arr.find(key)}, nil
	}
	return lvalue{}, runtimeErr("assignment to non-lvalue %T", target)
}

func (in *interp) load(lv lvalue) value {
	switch lv.kind {
	case lvVar:
		return in.getVar(lv.slot)
	case lvField:
		return in.getField(lv.slot.idx)
	}
	if lv.pos < 0 {
		return uninitialized
	}
	return lv.arr.cells[lv.pos].val
}

func (in *interp) store(lv lvalue, v value) {
	switch lv.kind {
	case lvVar:
		in.setVar(lv.slot, v)
	case lvField:
		in.setField(lv.slot.idx, v)
	default:
		if lv.pos < 0 {
			lv.arr.insert(lv.key, v)
		} else {
			lv.arr.cells[lv.pos].val = v
		}
	}
}

func (in *interp) evalAssign(ex *assign) (value, error) {
	rhs, err := in.eval(ex.val)
	if err != nil {
		return uninitialized, err
	}
	lv, err := in.lvalueOf(ex.target)
	if err != nil {
		return uninitialized, err
	}
	if ex.op != "=" {
		rhs = num(arith(ex.op[:len(ex.op)-1], in.load(lv).Num(), rhs.Num()))
	}
	in.store(lv, rhs)
	return rhs, nil
}

func (in *interp) evalIncDec(ex *incDec) (value, error) {
	lv, err := in.lvalueOf(ex.target)
	if err != nil {
		return uninitialized, err
	}
	old := in.load(lv).Num()
	delta := 1.0
	if ex.op == "--" {
		delta = -1
	}
	in.store(lv, num(old+delta))
	if ex.pre {
		return num(old + delta), nil
	}
	return num(old), nil
}

func arith(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	case "%":
		return math.Mod(a, b)
	case "^":
		return math.Pow(a, b)
	}
	panic("awk: unknown arithmetic op " + op)
}

func (in *interp) evalBinary(ex *binary) (value, error) {
	l, err := in.eval(ex.l)
	if err != nil {
		return uninitialized, err
	}
	// Short circuit: a false left side decides &&, a true one decides ||.
	if ex.op == "&&" && !l.Bool() || ex.op == "||" && l.Bool() {
		return boolNum(ex.op == "||"), nil
	}
	r, err := in.eval(ex.r)
	if err != nil {
		return uninitialized, err
	}
	switch ex.op {
	case "&&", "||":
		return boolNum(r.Bool()), nil
	case "concat":
		return str(l.Str() + r.Str()), nil
	case "+", "-", "*", "/", "%", "^":
		return num(arith(ex.op, l.Num(), r.Num())), nil
	case "<", "<=", ">", ">=", "==", "!=":
		c := compare(l, r)
		ok := false
		switch ex.op {
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		case "==":
			ok = c == 0
		case "!=":
			ok = c != 0
		}
		return boolNum(ok), nil
	}
	return uninitialized, runtimeErr("unknown operator %q", ex.op)
}

func (in *interp) evalMatch(ex *matchExpr) (value, error) {
	l, err := in.eval(ex.l)
	if err != nil {
		return uninitialized, err
	}
	var re *compiledRegex
	if rl, ok := ex.re.(*regexLit); ok {
		re = rl.re
	} else {
		rv, err := in.eval(ex.re)
		if err != nil {
			return uninitialized, err
		}
		re, err = in.regex(rv.Str())
		if err != nil {
			return uninitialized, err
		}
	}
	return boolNum(re.re.MatchLine([]byte(l.Str())) != ex.neg), nil
}

func (in *interp) evalCall(ex *call) (value, error) {
	fd, ok := in.prog.funcs[ex.name]
	if !ok {
		return uninitialized, runtimeErr("call to undefined function %s", ex.name)
	}
	if len(ex.args) > len(fd.params) {
		return uninitialized, runtimeErr("%s called with %d args, defined with %d", ex.name, len(ex.args), len(fd.params))
	}
	fr := frame{scalars: make([]value, len(fd.params))}
	// Bind arguments in the caller's scope before pushing the frame.
	for i, arg := range ex.args {
		if vr, ok := arg.(*varRef); ok && in.isArray(vr.varSlot) {
			if fr.arrays == nil {
				fr.arrays = make([]*array, len(fd.params))
			}
			fr.arrays[i] = in.array(vr.varSlot)
			continue
		}
		v, err := in.eval(arg)
		if err != nil {
			return uninitialized, err
		}
		fr.scalars[i] = v
	}
	if len(in.frames) > 200 {
		return uninitialized, runtimeErr("call stack overflow in %s", ex.name)
	}
	in.frames = append(in.frames, fr)
	err := in.execBlock(fd.body)
	in.frames = in.frames[:len(in.frames)-1]
	var rs returnSignal
	if errors.As(err, &rs) {
		return rs.val, nil
	}
	return uninitialized, err
}

// evalGetline implements `getline [lvalue] < file`: 1 on a line read, 0 at
// EOF, -1 when the file cannot be opened.
func (in *interp) evalGetline(ex *getlineExpr) (value, error) {
	sv, err := in.eval(ex.src)
	if err != nil {
		return uninitialized, err
	}
	name := sv.Str()
	r, ok := in.readers[name]
	if !ok {
		if in.openRead == nil {
			return uninitialized, runtimeErr("getline unavailable in this context")
		}
		f, err := in.openRead(name)
		if err != nil {
			return num(-1), nil
		}
		blk := apps.GetBlock()
		r = &getlineReader{c: f, sc: apps.NewLineScanner(f, blk), blk: blk}
		in.readers[name] = r
	}
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return num(-1), nil
		}
		return num(0), nil
	}
	line := r.sc.Text()
	if ex.target == nil {
		in.setRecord(line)
		return num(1), nil
	}
	lv, err := in.lvalueOf(ex.target)
	if err != nil {
		return uninitialized, err
	}
	in.store(lv, inputStr(line))
	return num(1), nil
}
