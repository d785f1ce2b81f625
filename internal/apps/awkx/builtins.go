package awkx

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"compstor/internal/apps"
)

// builtin is one built-in function: how many arguments it takes, checked
// when a call is compiled, and either fn over the evaluated arguments or,
// for the ones that take an array, a regex or an assignment target, a
// compiler of their own.
type builtin struct {
	min, max int
	fn       func(in *interp, args []value) (value, error)
	form     func(c *compiler, name string, args []expr) evalFn
}

// builtins is also how the lexer knows a builtin's name. It is filled at
// start-up because the forms compile expressions, which may be calls.
var builtins map[string]*builtin

func init() {
	builtins = map[string]*builtin{
		"length": {0, 1, nil, (*compiler).length},
		"split":  {2, 3, nil, (*compiler).split},
		"sub":    {2, 3, nil, (*compiler).sub},
		"gsub":   {2, 3, nil, (*compiler).sub},
		"match":  {2, 2, nil, (*compiler).match},
		"substr": {2, 3, substr, nil},
		"sprintf": {1, math.MaxInt, func(in *interp, args []value) (value, error) {
			s, err := in.sprintf(args[0].Str(), args[1:])
			return str(s), err
		}, nil},
		"index": {2, 2, func(_ *interp, args []value) (value, error) {
			return num(float64(strings.Index(args[0].Str(), args[1].Str()) + 1)), nil
		}, nil},
		"toupper": {1, 1, func(_ *interp, args []value) (value, error) { return str(strings.ToUpper(args[0].Str())), nil }, nil},
		"tolower": {1, 1, func(_ *interp, args []value) (value, error) { return str(strings.ToLower(args[0].Str())), nil }, nil},
		"int":     math1(math.Trunc),
		"sqrt":    math1(math.Sqrt),
		"exp":     math1(math.Exp),
		"log":     math1(math.Log),
		"sin":     math1(math.Sin),
		"cos":     math1(math.Cos),
		"atan2": {2, 2, func(_ *interp, args []value) (value, error) {
			return num(math.Atan2(args[0].Num(), args[1].Num())), nil
		}, nil},
		"rand": {0, 0, func(in *interp, _ []value) (value, error) {
			if in.rng == nil {
				in.rng = rand.New(rand.NewSource(in.rngSeed))
			}
			return num(in.rng.Float64()), nil
		}, nil},
		"srand": {0, 1, func(in *interp, args []value) (value, error) {
			prev := in.rngSeed
			if len(args) == 1 {
				in.rngSeed = int64(args[0].Num())
			} else {
				in.rngSeed++
			}
			in.rng = rand.New(rand.NewSource(in.rngSeed))
			return num(float64(prev)), nil
		}, nil},
	}
}

func math1(f func(float64) float64) *builtin {
	return &builtin{1, 1, func(_ *interp, args []value) (value, error) { return num(f(args[0].Num())), nil }, nil}
}

// push evaluates args onto the argument stack, where a call's values live
// while it runs, and returns where they start; the caller pops them by
// cutting the stack back to there. On an error nothing is left pushed.
func (in *interp) push(args []evalFn) (base int, err error) {
	base = len(in.stack)
	for _, a := range args {
		v, err := a(in)
		if err != nil {
			in.stack = in.stack[:base]
			return base, err
		}
		in.stack = append(in.stack, v)
	}
	return base, nil
}

func (c *compiler) builtin(ex *builtinCall) evalFn {
	b := builtins[ex.name]
	if n := len(ex.args); n < b.min || n > b.max {
		return fail("%s: expected %d-%d args, got %d", ex.name, b.min, b.max, n)
	}
	if b.form != nil {
		return b.form(c, ex.name, ex.args)
	}
	args, fn := c.exprs(ex.args), b.fn
	return func(in *interp) (value, error) {
		base, err := in.push(args)
		if err != nil {
			return uninitialized, err
		}
		v, err := fn(in, in.stack[base:])
		in.stack = in.stack[:base]
		return v, err
	}
}

func (c *compiler) length(_ string, args []expr) evalFn {
	if len(args) == 0 { // bare `length` means length($0)
		return func(in *interp) (value, error) {
			err := in.ensureRecord()
			return num(float64(len(in.record))), err
		}
	}
	arg := c.expr(args[0])
	vr, _ := args[0].(*varRef)
	return func(in *interp) (value, error) {
		if vr != nil && in.isArray(vr.varSlot) {
			return num(float64(in.array(vr.varSlot).length())), nil
		}
		v, err := arg(in)
		return num(float64(len(v.Str()))), err
	}
}

func substr(_ *interp, args []value) (value, error) {
	s := args[0].Str()
	m := int(args[1].Num())
	n := len(s) + 1
	if len(args) == 3 {
		n = int(args[2].Num())
	}
	// POSIX clamping: the result is characters at positions
	// [max(1,m), m+n) within 1..len.
	start, end := max(m, 1), min(m+n, len(s)+1)
	if start >= end {
		return str(""), nil
	}
	return str(s[start-1 : end-1]), nil
}

func (c *compiler) split(_ string, args []expr) evalFn {
	src, sep := c.expr(args[0]), c.expr(&varRef{varSlot: varSlot{idx: slotFS}})
	vr, isName := args[1].(*varRef)
	if len(args) == 3 {
		sep = c.expr(args[2])
		if rl, ok := args[2].(*regexLit); ok {
			sep = constant(str(rl.re.src))
		}
	}
	return func(in *interp) (value, error) {
		sv, err := src(in)
		if err != nil {
			return uninitialized, err
		}
		if !isName {
			return uninitialized, runtimeErr("split: second argument must be an array")
		}
		fs, err := sep(in)
		if err != nil {
			return uninitialized, err
		}
		arr := in.array(vr.varSlot)
		arr.clear()
		parts := in.splitFields(nil, sv.Str(), fs.Str())
		for i, p := range parts {
			arr.insert(numToStr(float64(i+1)), inputStr(p))
		}
		return num(float64(len(parts))), nil
	}
}

// sub compiles sub and gsub, whose target is $0 unless a third argument
// names one.
func (c *compiler) sub(name string, args []expr) evalFn {
	re, repl, global := c.regex(args[0]), c.expr(args[1]), name == "gsub"
	dst := expr(&fieldRef{idx: &numLit{v: 0}})
	if len(args) == 3 {
		dst = args[2]
	}
	t, assignable := c.target(dst), isLvalue(dst)
	return func(in *interp) (value, error) {
		m, err := re(in)
		if err != nil {
			return uninitialized, err
		}
		rv, err := repl(in)
		if err != nil {
			return uninitialized, err
		}
		if !assignable {
			return uninitialized, runtimeErr("%s: target must be assignable", name)
		}
		p, err := t.at(in)
		if err != nil {
			return uninitialized, err
		}
		out, count, err := substitute(m, t.get(in, p).Str(), rv.Str(), global)
		if count > 0 && err == nil {
			err = t.set(in, p, str(out))
		} else if p.arr != nil && p.pos < 0 {
			p.arr.insert(p.key, uninitialized) // a named element exists after, as in mawk
		}
		return num(float64(count)), err
	}
}

func (c *compiler) match(_ string, args []expr) evalFn {
	src, re := c.expr(args[0]), c.regex(args[1])
	return func(in *interp) (value, error) {
		sv, err := src(in)
		if err != nil {
			return uninitialized, err
		}
		m, err := re(in)
		if err != nil {
			return uninitialized, err
		}
		st, en, ok := m.re.FindIndex([]byte(sv.Str()), 0)
		if !ok {
			st, en = -1, -2 // RSTART 0, RLENGTH -1
		}
		in.globals[slotRSTART] = num(float64(st + 1))
		in.globals[slotRLENGTH] = num(float64(en - st))
		return num(float64(st + 1)), nil
	}
}

// substitute performs sub/gsub over s, expanding & (matched text) and \&
// in the replacement. As in POSIX awk, an empty match counts everywhere,
// the end of s included, except right where a match ended.
func substitute(re *compiledRegex, s, repl string, global bool) (string, int, error) {
	var out strings.Builder
	count := 0
	src := []byte(s)
	done, lastEnd := 0, -1 // src[:done] is in out; where the last match ended
	for at := 0; at <= len(src); {
		st, en, ok := re.re.FindIndex(src, at)
		if !ok {
			break
		}
		if en == st && st == lastEnd {
			at = st + 1
			continue
		}
		out.Write(src[done:st])
		if !expandRepl(&out, repl, src[st:en]) {
			return "", 0, errStringLimit
		}
		count++
		done, lastEnd, at = en, en, en
		if en == st {
			at++ // the byte after an empty match is copied as text
		}
		if !global {
			break
		}
	}
	out.Write(src[done:])
	if out.Len() > apps.MaxOutput {
		return "", 0, errStringLimit
	}
	return out.String(), count, nil
}

// expandRepl appends repl to out with each & expanded, reporting false
// instead when that would take out past apps.MaxOutput.
func expandRepl(out *strings.Builder, repl string, matched []byte) bool {
	for i := 0; i < len(repl); i++ {
		if out.Len()+len(matched) > apps.MaxOutput {
			return false
		}
		c := repl[i]
		switch {
		case c == '\\' && i+1 < len(repl) && repl[i+1] == '&':
			out.WriteByte('&')
			i++
		case c == '\\' && i+1 < len(repl) && repl[i+1] == '\\':
			out.WriteByte('\\')
			i++
		case c == '&':
			out.Write(matched)
		default:
			out.WriteByte(c)
		}
	}
	return true
}

// sprintf implements awk's printf formatting on top of Go's fmt, converting
// each argument to the type its verb expects.
func (in *interp) sprintf(format string, args []value) (string, error) {
	var out strings.Builder
	ai := 0
	nextArg := func() value {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return uninitialized
	}
	for i := 0; i < len(format); i++ {
		if out.Len() > apps.MaxOutput {
			return "", errStringLimit
		}
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			continue
		}
		if i+1 < len(format) && format[i+1] == '%' {
			out.WriteByte('%')
			i++
			continue
		}
		// Scan flags, width, precision.
		j := i + 1
		spec := "%"
		for j < len(format) && strings.ContainsRune("-+ 0#", rune(format[j])) {
			spec += string(format[j])
			j++
		}
		// A width or a precision: digits, or `*` for the next argument.
		number := func() {
			for j < len(format) && (format[j] >= '0' && format[j] <= '9') {
				spec += string(format[j])
				j++
			}
			if j < len(format) && format[j] == '*' {
				spec += fmt.Sprintf("%d", int(nextArg().Num()))
				j++
			}
		}
		number()
		if j < len(format) && format[j] == '.' {
			spec += "."
			j++
			number()
		}
		if j >= len(format) {
			return "", runtimeErr("printf: truncated format %q", format)
		}
		verb := format[j]
		i = j
		switch verb {
		case 'd', 'i', 'u':
			fmt.Fprintf(&out, spec+"d", int64(nextArg().Num()))
		case 'o', 'x', 'X':
			fmt.Fprintf(&out, spec+string(verb), int64(nextArg().Num()))
		case 'e', 'E', 'f', 'F', 'g', 'G':
			fmt.Fprintf(&out, spec+string(verb), nextArg().Num())
		case 'c':
			v := nextArg()
			if v.kind == isNum {
				fmt.Fprintf(&out, spec+"c", rune(int(v.n)))
			} else if s := v.Str(); len(s) > 0 {
				fmt.Fprintf(&out, spec+"c", rune(s[0]))
			}
		case 's':
			s := nextArg().Str()
			if out.Len()+len(s) > apps.MaxOutput {
				return "", errStringLimit
			}
			fmt.Fprintf(&out, spec+"s", s)
		default:
			return "", runtimeErr("printf: unsupported verb %%%c", verb)
		}
	}
	if out.Len() > apps.MaxOutput {
		return "", errStringLimit
	}
	return out.String(), nil
}
