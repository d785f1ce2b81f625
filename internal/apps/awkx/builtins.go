package awkx

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

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
	switch name {
	case "length":
		if argc == 0 {
			in.ensureRecord()
			return num(float64(len(in.record))), nil
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
		fs := in.fs()
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
		re, err := in.regexArg(ex.args[0])
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
		out, count := substitute(re, in.load(lv).Str(), rv.Str(), name == "gsub")
		if count > 0 {
			in.store(lv, str(out))
		}
		return num(float64(count)), nil

	case "match":
		if err := need(2, 2); err != nil {
			return uninitialized, err
		}
		sv, err := in.eval(ex.args[0])
		if err != nil {
			return uninitialized, err
		}
		re, err := in.regexArg(ex.args[1])
		if err != nil {
			return uninitialized, err
		}
		st, en, ok := re.re.FindIndex([]byte(sv.Str()))
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

// regexArg resolves a regex-position argument (literal or dynamic string).
func (in *interp) regexArg(e expr) (*compiledRegex, error) {
	if rl, ok := e.(*regexLit); ok {
		return rl.re, nil
	}
	v, err := in.eval(e)
	if err != nil {
		return nil, err
	}
	return in.regex(v.Str())
}

// substitute performs sub/gsub over s, expanding & (matched text) and \&
// in the replacement.
func substitute(re *compiledRegex, s, repl string, global bool) (string, int) {
	var out strings.Builder
	count := 0
	rest := []byte(s)
	for {
		st, en, ok := re.re.FindIndex(rest)
		if !ok {
			break
		}
		out.Write(rest[:st])
		out.WriteString(expandRepl(repl, string(rest[st:en])))
		count++
		if en == st {
			// Empty match: copy one byte forward to guarantee progress.
			if st < len(rest) {
				out.WriteByte(rest[st])
				rest = rest[st+1:]
			} else {
				rest = nil
			}
		} else {
			rest = rest[en:]
		}
		if !global || len(rest) == 0 {
			break
		}
	}
	out.Write(rest)
	return out.String(), count
}

func expandRepl(repl, matched string) string {
	var out strings.Builder
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		switch {
		case c == '\\' && i+1 < len(repl) && repl[i+1] == '&':
			out.WriteByte('&')
			i++
		case c == '\\' && i+1 < len(repl) && repl[i+1] == '\\':
			out.WriteByte('\\')
			i++
		case c == '&':
			out.WriteString(matched)
		default:
			out.WriteByte(c)
		}
	}
	return out.String()
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
		case 'd', 'i':
			fmt.Fprintf(&out, spec+"d", int64(nextArg().Num()))
		case 'o', 'x', 'X', 'u':
			v := int64(nextArg().Num())
			if verb == 'u' {
				fmt.Fprintf(&out, spec+"d", v)
			} else {
				fmt.Fprintf(&out, spec+string(verb), v)
			}
		case 'e', 'E', 'f', 'F', 'g', 'G':
			fmt.Fprintf(&out, spec+string(verb), nextArg().Num())
		case 'c':
			v := nextArg()
			if v.isNum {
				fmt.Fprintf(&out, spec+"c", rune(int(v.n)))
			} else if s := v.Str(); len(s) > 0 {
				fmt.Fprintf(&out, spec+"c", rune(s[0]))
			}
		case 's':
			fmt.Fprintf(&out, spec+"s", nextArg().Str())
		default:
			return "", runtimeErr("printf: unsupported verb %%%c", verb)
		}
	}
	return out.String(), nil
}
