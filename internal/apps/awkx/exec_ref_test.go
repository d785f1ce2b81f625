package awkx

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"compstor/internal/apps"
)

// The tree-walking evaluator the compile step (compile.go) replaced, kept
// as the oracle TestCompiledEqualsTreeWalk and FuzzAwkRun hold the compiled
// form to. It is the code as it ran, on the same interp and the same
// helpers (fields, arrays, sprintf, substitute), with its entry points
// renamed ref* and five deliberate differences, each one a place where the
// compiled form does not repeat what the walk did:
//
//   - loops and calls count steps (interp.step) at the points the compiled
//     form does, in place of a per-loop iteration limit;
//   - break and continue in a function body are errors there, where the
//     walk let them reach a loop of the caller;
//   - a next or exit raised by a function in a rule's pattern acts as it
//     does in the action, where the walk failed with "awk: next";
//   - every builtin's argument count is checked (rand, srand, length and
//     sprintf went unchecked or had a message of their own);
//   - reading x[k] creates the element, as awk's does, where the walk left
//     the array as it was.

// Control-flow signals, carried as errors through the tree walk.
var (
	errBreak    = errors.New("awk: break outside loop")
	errContinue = errors.New("awk: continue outside loop")
	errNext     = errors.New("awk: next")
)

type returnSignal struct{ val value }

func (returnSignal) Error() string { return "awk: return outside function" }

type exitSignal struct{ code int }

func (exitSignal) Error() string { return "awk: exit" }

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
		if st.formatted {
			return in.execPrintf(st)
		}
		return in.execPrint(st)
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
	case *jumpStmt:
		return map[ctl]error{ctlBreak: errBreak, ctlContinue: errContinue, ctlNext: errNext}[st.code]
	case *leaveStmt:
		v, err := in.eval(st.val)
		if err != nil {
			return err
		}
		if st.code == ctlExit {
			return exitSignal{code: int(v.Num())}
		}
		return returnSignal{val: v}
	case *deleteStmt:
		if st.index == nil {
			in.array(st.arr).clear()
			return nil
		}
		key, err := in.refSubscript(st.index)
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
	for i := 0; ; i++ {
		if err := in.step(); err != nil {
			return err
		}
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
			if err = in.step(); err == nil {
				err = in.setVar(st.v, inputStr(c.key))
			}
			if err != nil {
				break
			}
			done, err = loopErr(in.exec(st.body)) // done on break and on error
		}
	}
	arr.loops--
	arr.compact()
	return err
}

// refPrintDest resolves the output writer for print/printf redirection.
func (in *interp) refPrintDest(dest expr) (io.Writer, error) {
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
	w, err := in.refPrintDest(st.dest)
	if err != nil {
		return err
	}
	if len(st.args) == 0 {
		if err := in.ensureRecord(); err != nil {
			return err
		}
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

func (in *interp) execPrintf(st *printStmt) error {
	w, err := in.refPrintDest(st.dest)
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
		err := in.ensureRecord()
		return boolNum(ex.re.re.MatchLine([]byte(in.record))), err
	case *groupExpr:
		return in.eval(ex.e)
	case *varRef:
		return in.getVar(ex.varSlot), nil
	case *fieldRef:
		idx, err := in.eval(ex.idx)
		if err != nil {
			return uninitialized, err
		}
		return in.getField(int(idx.Num()))
	case *indexRef: // reading x[k] creates the element
		lv, err := in.lvalueOf(ex)
		if err != nil {
			return uninitialized, err
		}
		if lv.pos < 0 {
			lv.arr.insert(lv.key, uninitialized)
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
		key, err := in.refSubscript(ex.index)
		if err != nil {
			return uninitialized, err
		}
		return boolNum(in.array(ex.arr).find(key) >= 0), nil
	case *call:
		return in.refCall(ex)
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
		if err == nil && int(idx.Num()) == 0 {
			err = in.ensureRecord()
		}
		return lvalue{kind: lvField, slot: varSlot{idx: int(idx.Num())}}, err
	case *indexRef:
		key, err := in.refSubscript(t.index)
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
		v, _ := in.getField(lv.slot.idx) // lvalueOf rebuilt $0
		return v
	}
	if lv.pos < 0 {
		return uninitialized
	}
	return lv.arr.cells[lv.pos].val
}

func (in *interp) store(lv lvalue, v value) error {
	switch lv.kind {
	case lvVar:
		return in.setVar(lv.slot, v)
	case lvField:
		return in.setField(lv.slot.idx, v)
	default:
		if lv.pos < 0 {
			lv.arr.insert(lv.key, v)
		} else {
			lv.arr.cells[lv.pos].val = v
		}
	}
	return nil
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
		rhs = num(refArith(ex.op[:len(ex.op)-1], in.load(lv).Num(), rhs.Num()))
	}
	return rhs, in.store(lv, rhs)
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
	if err := in.store(lv, num(old+delta)); err != nil || !ex.pre {
		return num(old), err
	}
	return num(old + delta), nil
}

func refArith(op string, a, b float64) float64 {
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
		return concat(l.Str(), r.Str())
	case "+", "-", "*", "/", "%", "^":
		return num(refArith(ex.op, l.Num(), r.Num())), nil
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

func (in *interp) refCall(ex *call) (value, error) {
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
		if vr, ok := arg.(*varRef); ok && (fd.arrays[i] || in.isArray(vr.varSlot)) {
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
	if err := in.step(); err != nil {
		return uninitialized, err
	}
	in.frames = append(in.frames, fr)
	err := in.execBlock(fd.body)
	in.frames = in.frames[:len(in.frames)-1]
	var rs returnSignal
	if errors.As(err, &rs) {
		return rs.val, nil
	}
	if err == errBreak || err == errContinue {
		err = errors.New(err.Error()) // not a jump any more: a loop of the caller must not take it
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
	return num(1), in.store(lv, inputStr(line))
}

// refSubscript evaluates an array subscript to its key: the value's string,
// or for several values their strings joined by SUBSEP.
func (in *interp) refSubscript(index []expr) (string, error) {
	if len(index) == 1 {
		v, err := in.eval(index[0])
		return v.Str(), err
	}
	var key strings.Builder
	for i, e := range index {
		v, err := in.eval(e)
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

// evalBuiltin dispatches the built-in functions.
func (in *interp) evalBuiltin(ex *builtinCall) (value, error) {
	name := ex.name
	argc := len(ex.args)
	need := func(min, max int) error {
		if argc < min || argc > max {
			return runtimeErr("%s: expected %d-%d args, got %d", name, min, max, argc)
		}
		return nil
	}
	if b := builtins[name]; argc < b.min || argc > b.max {
		return uninitialized, runtimeErr("%s: expected %d-%d args, got %d", name, b.min, b.max, argc)
	}
	switch name {
	case "length":
		if argc == 0 {
			err := in.ensureRecord()
			return num(float64(len(in.record))), err
		}
		if vr, ok := ex.args[0].(*varRef); ok && in.isArray(vr.varSlot) {
			return num(float64(in.array(vr.varSlot).length())), nil
		}
		v, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		return num(float64(len(v.Str()))), nil

	case "substr":
		if err := need(2, 3); err != nil {
			return uninitialized, err
		}
		vals, err := in.evalAll(ex.args)
		if err != nil {
			return uninitialized, err
		}
		s := vals[0].Str()
		m := int(vals[1].Num())
		n := len(s) + 1
		if argc == 3 {
			n = int(vals[2].Num())
		}
		// POSIX clamping: the result is characters at positions
		// [max(1,m), m+n) within 1..len.
		start := m
		end := m + n
		if start < 1 {
			start = 1
		}
		if end > len(s)+1 {
			end = len(s) + 1
		}
		if start >= end {
			return str(""), nil
		}
		return str(s[start-1 : end-1]), nil

	case "index":
		if err := need(2, 2); err != nil {
			return uninitialized, err
		}
		vals, err := in.evalAll(ex.args)
		if err != nil {
			return uninitialized, err
		}
		return num(float64(strings.Index(vals[0].Str(), vals[1].Str()) + 1)), nil

	case "split":
		if err := need(2, 3); err != nil {
			return uninitialized, err
		}
		sv, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		vr, ok := ex.args[1].(*varRef)
		if !ok {
			return uninitialized, runtimeErr("split: second argument must be an array")
		}
		fs := in.globals[slotFS].Str()
		if argc == 3 {
			if rl, ok := ex.args[2].(*regexLit); ok {
				fs = rl.re.src
			} else {
				fv, err := in.eval(ex.args[2])
				if err != nil {
					return uninitialized, err
				}
				fs = fv.Str()
			}
		}
		arr := in.array(vr.varSlot)
		arr.clear()
		parts := in.splitFields(nil, sv.Str(), fs)
		for i, p := range parts {
			arr.insert(numToStr(float64(i+1)), inputStr(p))
		}
		return num(float64(len(parts))), nil

	case "sub", "gsub":
		if err := need(2, 3); err != nil {
			return uninitialized, err
		}
		re, err := in.refRegexArg(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		rv, err := in.eval(ex.args[1])
		if err != nil {
			return uninitialized, err
		}
		target := expr(&fieldRef{idx: &numLit{v: 0}})
		if argc == 3 {
			if !isLvalue(ex.args[2]) {
				return uninitialized, runtimeErr("%s: target must be assignable", name)
			}
			target = ex.args[2]
		}
		lv, err := in.lvalueOf(target)
		if err != nil {
			return uninitialized, err
		}
		out, count, err := substitute(re, in.load(lv).Str(), rv.Str(), name == "gsub")
		if count > 0 && err == nil {
			err = in.store(lv, str(out))
		} else if lv.kind == lvElem && lv.pos < 0 {
			lv.arr.insert(lv.key, uninitialized) // mawk creates the element
		}
		return num(float64(count)), err

	case "match":
		if err := need(2, 2); err != nil {
			return uninitialized, err
		}
		sv, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		re, err := in.refRegexArg(ex.args[1])
		if err != nil {
			return uninitialized, err
		}
		st, en, ok := re.re.FindIndex([]byte(sv.Str()), 0)
		if !ok {
			in.globals[slotRSTART] = num(0)
			in.globals[slotRLENGTH] = num(-1)
			return num(0), nil
		}
		in.globals[slotRSTART] = num(float64(st + 1))
		in.globals[slotRLENGTH] = num(float64(en - st))
		return num(float64(st + 1)), nil

	case "sprintf":
		if argc < 1 {
			return uninitialized, runtimeErr("sprintf: missing format")
		}
		vals, err := in.evalAll(ex.args)
		if err != nil {
			return uninitialized, err
		}
		s, err := in.sprintf(vals[0].Str(), vals[1:])
		if err != nil {
			return uninitialized, err
		}
		return str(s), nil

	case "toupper", "tolower":
		if err := need(1, 1); err != nil {
			return uninitialized, err
		}
		v, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		if name == "toupper" {
			return str(strings.ToUpper(v.Str())), nil
		}
		return str(strings.ToLower(v.Str())), nil

	case "int", "sqrt", "exp", "log", "sin", "cos":
		if err := need(1, 1); err != nil {
			return uninitialized, err
		}
		v, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		x := v.Num()
		switch name {
		case "int":
			return num(math.Trunc(x)), nil
		case "sqrt":
			return num(math.Sqrt(x)), nil
		case "exp":
			return num(math.Exp(x)), nil
		case "log":
			return num(math.Log(x)), nil
		case "sin":
			return num(math.Sin(x)), nil
		default:
			return num(math.Cos(x)), nil
		}

	case "atan2":
		if err := need(2, 2); err != nil {
			return uninitialized, err
		}
		vals, err := in.evalAll(ex.args)
		if err != nil {
			return uninitialized, err
		}
		return num(math.Atan2(vals[0].Num(), vals[1].Num())), nil

	case "rand":
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(in.rngSeed))
		}
		return num(in.rng.Float64()), nil

	case "srand":
		prev := in.rngSeed
		if argc >= 1 {
			v, err := in.eval(ex.args[0])
			if err != nil {
				return uninitialized, err
			}
			in.rngSeed = int64(v.Num())
		} else {
			in.rngSeed++
		}
		in.rng = rand.New(rand.NewSource(in.rngSeed))
		return num(float64(prev)), nil
	}
	return uninitialized, runtimeErr("unknown builtin %s", name)
}

// refRegexArg resolves a regex-position argument (literal or dynamic string).
func (in *interp) refRegexArg(e expr) (*compiledRegex, error) {
	if rl, ok := e.(*regexLit); ok {
		return rl.re, nil
	}
	v, err := in.eval(e)
	if err != nil {
		return nil, err
	}
	return in.regex(v.Str())
}

// refRun executes BEGIN rules, the main loop over input records, and END
// rules, returning the exit code.
func (in *interp) refRun(inputs []namedReader) (int, error) {
	defer in.release()
	in.startRecord()
	exitCode, err := in.refRunRules(inputs)
	if err != nil {
		return 1, err
	}
	// POSIX: exit in BEGIN or a main rule still runs END rules; exit inside
	// END terminates immediately.
	in.startRecord()
	for _, blk := range in.prog.ends {
		if err := in.execBlock(blk); err != nil {
			if errors.Is(err, errNext) {
				return 1, runtimeErr("next inside END")
			}
			return exitOrErr(err)
		}
	}
	return exitCode, nil
}

// exitOrErr turns what stopped a block into Run's result: the code of an
// `exit`, or 1 and the error.
func exitOrErr(err error) (int, error) {
	var ex exitSignal
	if errors.As(err, &ex) {
		return ex.code, nil
	}
	return 1, err
}

// refRunRules runs the BEGIN rules and the main loop, to the end of input or
// the first `exit`, whose code it returns.
func (in *interp) refRunRules(inputs []namedReader) (int, error) {
	for _, blk := range in.prog.begins {
		if err := in.execBlock(blk); err != nil && !errors.Is(err, errNext) {
			return exitOrErr(err)
		}
	}
	// The input is read only when there are main rules or END blocks.
	if len(in.prog.rules) == 0 && len(in.prog.ends) == 0 {
		return 0, nil
	}
	buf := apps.GetBlock()
	defer apps.PutBlock(buf)
	for _, input := range inputs {
		in.globals[slotFILENAME] = str(input.name)
		sc := apps.NewLineScanner(input.r, buf)
		for sc.Scan() {
			in.nr++
			in.startRecord()
			in.setRecord(sc.Text())
			for _, r := range in.prog.rules {
				matched, err := in.refMatchPattern(r.pattern)
				if err == nil && !matched {
					continue
				}
				if err == nil {
					err = in.execBlock(r.action)
				}
				if errors.Is(err, errNext) {
					break // skip remaining rules for this record
				}
				if err != nil {
					return exitOrErr(err)
				}
			}
		}
		if err := sc.Err(); err != nil {
			return 1, runtimeErr("reading %s: %v", input.name, err)
		}
	}
	return 0, nil
}

// refMatchPattern evaluates a rule pattern against the current record.
func (in *interp) refMatchPattern(pat expr) (bool, error) {
	if pat == nil {
		return true, nil
	}
	if re, ok := pat.(*regexLit); ok {
		err := in.ensureRecord()
		return re.re.re.MatchLine([]byte(in.record)), err
	}
	v, err := in.eval(pat)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
