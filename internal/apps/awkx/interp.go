package awkx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"unicode/utf8"

	"compstor/internal/apps"
)

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

// frame is a function activation record, indexed by parameter position.
// Params not passed are local scalars; array params alias the caller's
// array.
type frame struct {
	scalars []value
	arrays  []*array // nil until an array is passed or made
}

// interp executes a parsed program.
type interp struct {
	prog    *program
	globals []value  // by slot
	arrays  []*array // by slot; nil until first used
	frames  []frame

	record      string
	fields      []string
	fieldsValid bool
	recordValid bool

	nr int

	out      io.Writer
	openFile func(name string) (io.WriteCloser, error) // print > "file"
	files    map[string]io.WriteCloser
	openRead func(name string) (io.ReadCloser, error) // getline < "file"
	readers  map[string]*getlineReader

	rng     *rand.Rand // nil until the first rand() or srand()
	rngSeed int64

	reCache map[string]*compiledRegex
}

func newInterp(prog *program, out io.Writer) *interp {
	in := &interp{
		prog:    prog,
		globals: make([]value, len(prog.globals)),
		arrays:  make([]*array, len(prog.globals)),
		out:     out,
		files:   make(map[string]io.WriteCloser),
		readers: make(map[string]*getlineReader),
		reCache: make(map[string]*compiledRegex),
	}
	in.globals[slotFS] = str(" ")
	in.globals[slotOFS] = str(" ")
	in.globals[slotORS] = str("\n")
	in.globals[slotSUBSEP] = str("\x1c")
	return in
}

// configure applies the command line's -F and -v settings and wires file
// access to the program's context.
func (in *interp) configure(ctx *apps.Context, fs string, assigns [][2]string) {
	in.openFile = func(name string) (io.WriteCloser, error) { return ctx.Create(name) }
	in.openRead = func(name string) (io.ReadCloser, error) { return ctx.Open(name) }
	if fs != "" {
		in.globals[slotFS] = str(fs)
	}
	for _, kv := range assigns {
		// A name the program never mentions has no slot and no reader.
		if idx, ok := in.prog.globals[kv[0]]; ok {
			in.setVar(varSlot{idx: idx}, inputStr(kv[1]))
		}
	}
}

// getlineReader is one open `getline < file` source, scanned through its
// own pooled block.
type getlineReader struct {
	c   io.Closer
	sc  *bufio.Scanner
	blk *apps.Block
}

// release closes the run's files and returns its pooled blocks and global
// arrays. A function's local arrays come from the pool too but are left to
// the collector, as the maps they replace were.
func (in *interp) release() {
	for _, f := range in.files {
		f.Close()
	}
	for _, r := range in.readers {
		r.c.Close()
		apps.PutBlock(r.blk)
	}
	for _, a := range in.arrays {
		if a != nil {
			a.release()
		}
	}
}

// Variables -------------------------------------------------------------------

func (in *interp) getVar(s varSlot) value {
	if s.local {
		return in.frames[len(in.frames)-1].scalars[s.idx]
	}
	switch s.idx {
	case slotNR:
		return num(float64(in.nr))
	case slotNF:
		in.ensureFields()
		return num(float64(len(in.fields)))
	}
	return in.globals[s.idx]
}

func (in *interp) setVar(s varSlot, v value) {
	if s.local {
		in.frames[len(in.frames)-1].scalars[s.idx] = v
		return
	}
	switch s.idx {
	case slotNR:
		in.nr = int(v.Num())
		return
	case slotNF:
		in.ensureFields()
		n := int(v.Num())
		if n < 0 {
			n = 0
		}
		for len(in.fields) > n {
			in.fields = in.fields[:len(in.fields)-1]
		}
		for len(in.fields) < n {
			in.fields = append(in.fields, "")
		}
		in.recordValid = false
		return
	}
	in.globals[s.idx] = v
}

// arrayTable returns the table s indexes: the innermost frame's for a
// parameter, the global one otherwise.
func (in *interp) arrayTable(s varSlot, create bool) []*array {
	if !s.local {
		return in.arrays
	}
	f := &in.frames[len(in.frames)-1]
	if f.arrays == nil && create {
		f.arrays = make([]*array, len(f.scalars))
	}
	return f.arrays
}

// array returns the associative array bound to s, creating it on demand.
func (in *interp) array(s varSlot) *array {
	tab := in.arrayTable(s, true)
	if tab[s.idx] == nil {
		tab[s.idx] = arrayPool.Get().(*array)
	}
	return tab[s.idx]
}

// isArray reports whether s currently denotes an array.
func (in *interp) isArray(s varSlot) bool {
	tab := in.arrayTable(s, false)
	return tab != nil && tab[s.idx] != nil
}

// subscript evaluates an array subscript to its key: the value's string,
// or for several values their strings joined by SUBSEP.
func (in *interp) subscript(index []expr) (string, error) {
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

// Record and field handling --------------------------------------------------

func (in *interp) setRecord(line string) {
	in.record = line
	in.recordValid = true
	in.fieldsValid = false
}

func (in *interp) fs() string  { return in.globals[slotFS].Str() }
func (in *interp) ofs() string { return in.globals[slotOFS].Str() }
func (in *interp) ors() string { return in.globals[slotORS].Str() }

func (in *interp) ensureFields() {
	if in.fieldsValid {
		return
	}
	in.ensureRecord()
	in.fields = in.splitFields(in.fields[:0], in.record, in.fs())
	in.fieldsValid = true
}

// splitFields splits a record by the current FS semantics, appending the
// fields to dst.
func (in *interp) splitFields(dst []string, s, fs string) []string {
	switch {
	case fs == " ":
		// What strings.Fields does for ASCII, without a slice per record.
		base, start := len(dst), -1
		for i := 0; i < len(s); i++ {
			switch c := s[i]; {
			case c >= utf8.RuneSelf:
				return append(dst[:base], strings.Fields(s)...)
			case !isBlank(c):
				if start < 0 {
					start = i
				}
			case start >= 0:
				dst = append(dst, s[start:i])
				start = -1
			}
		}
		if start >= 0 {
			dst = append(dst, s[start:])
		}
		return dst
	case len(fs) == 1:
		if s == "" {
			return dst
		}
		for {
			i := strings.IndexByte(s, fs[0])
			if i < 0 {
				return append(dst, s)
			}
			dst = append(dst, s[:i])
			s = s[i+1:]
		}
	default:
		re, err := in.regex(fs)
		if err != nil {
			return append(dst, strings.Split(s, fs)...)
		}
		if s == "" {
			return dst
		}
		rest := []byte(s)
		for {
			st, en, ok := re.re.FindIndex(rest)
			if !ok || en == st {
				return append(dst, string(rest))
			}
			dst = append(dst, string(rest[:st]))
			rest = rest[en:]
		}
	}
}

func (in *interp) ensureRecord() {
	if in.recordValid {
		return
	}
	in.record = strings.Join(in.fields, in.ofs())
	in.recordValid = true
}

func (in *interp) getField(i int) value {
	if i == 0 {
		in.ensureRecord()
		return inputStr(in.record)
	}
	in.ensureFields()
	if i < 1 || i > len(in.fields) {
		return uninitialized
	}
	return inputStr(in.fields[i-1])
}

func (in *interp) setField(i int, v value) {
	if i == 0 {
		in.setRecord(v.Str())
		return
	}
	in.ensureFields()
	for len(in.fields) < i {
		in.fields = append(in.fields, "")
	}
	in.fields[i-1] = v.Str()
	in.recordValid = false
}

// regex compiles (with caching) a dynamic regex source.
func (in *interp) regex(src string) (*compiledRegex, error) {
	if re, ok := in.reCache[src]; ok {
		return re, nil
	}
	re, err := compileRegex(src)
	if err != nil {
		return nil, err
	}
	in.reCache[src] = re
	return re, nil
}

// Program driver --------------------------------------------------------------

// runError distinguishes runtime errors from control signals.
func runtimeErr(format string, args ...any) error {
	return fmt.Errorf("awk: %s", fmt.Sprintf(format, args...))
}

// Run executes BEGIN rules, the main loop over input records, and END
// rules, returning the exit code.
func (in *interp) Run(inputs []namedReader) (int, error) {
	defer in.release()
	exitCode, err := in.runRules(inputs)
	if err != nil {
		return 1, err
	}
	// POSIX: exit in BEGIN or a main rule still runs END rules; exit inside
	// END terminates immediately.
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

// runRules runs the BEGIN rules and the main loop, to the end of input or
// the first `exit`, whose code it returns.
func (in *interp) runRules(inputs []namedReader) (int, error) {
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
			in.setRecord(sc.Text())
			for _, r := range in.prog.rules {
				matched, err := in.matchPattern(r.pattern)
				if err != nil {
					return 1, err
				}
				if !matched {
					continue
				}
				err = in.execBlock(r.action)
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

// namedReader pairs an input stream with its FILENAME.
type namedReader struct {
	name string
	r    io.Reader
}

// matchPattern evaluates a rule pattern against the current record.
func (in *interp) matchPattern(pat expr) (bool, error) {
	if pat == nil {
		return true, nil
	}
	if re, ok := pat.(*regexLit); ok {
		in.ensureRecord()
		return re.re.re.MatchLine([]byte(in.record)), nil
	}
	v, err := in.eval(pat)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
