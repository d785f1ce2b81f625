package awkx

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"unicode/utf8"

	"compstor/internal/apps"
)

// frame is a function activation record, indexed by parameter position.
// Params not passed are local scalars; array params alias the caller's
// array.
type frame struct {
	scalars []value
	arrays  []*array // nil until an array is passed or made
}

// interp executes a compiled program.
type interp struct {
	prog    *program
	code    *code
	globals []value  // by slot
	arrays  []*array // by slot; nil until first used
	frames  []frame
	stack   []value // arguments of the builtin calls in progress

	ret     value // of the last return, or exit
	pending ctl   // what errUnwind is carrying

	ctx       *apps.Context // nil outside a task: nothing to poll or charge
	steps     int           // taken so far in this record
	nextLook  int           // the count at which to look at ctx and the limit
	charged   int           // quanta charged so far in this record
	stepLimit int
	// impure marks a run that did more than read its records and print: it
	// polled or charged its context (look) or opened a file, so neither its
	// output nor its virtual time is a function of argv and records alone.
	impure bool

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
		prog:      prog,
		code:      compile(prog),
		stepLimit: maxSteps,
		globals:   make([]value, len(prog.globals)),
		arrays:    make([]*array, len(prog.globals)),
		out:       out,
		files:     make(map[string]io.WriteCloser),
		readers:   make(map[string]*getlineReader),
		reCache:   make(map[string]*compiledRegex),
	}
	in.globals[slotFS] = str(" ")
	in.globals[slotOFS] = str(" ")
	in.globals[slotORS] = str("\n")
	in.globals[slotSUBSEP] = str("\x1c")
	return in
}

// configure applies the command line's -F and -v settings and wires file
// access, cancellation and the step charge to the program's context.
func (in *interp) configure(ctx *apps.Context, fs string, assigns [][2]string) error {
	in.ctx = ctx
	in.openFile, in.openRead = ctx.Create, ctx.Open
	if fs != "" {
		in.globals[slotFS] = str(fs)
	}
	for _, kv := range assigns {
		// A name the program never mentions has no slot and no reader.
		if idx, ok := in.prog.globals[kv[0]]; ok {
			if err := in.setVar(varSlot{idx: idx}, inputStr(kv[1])); err != nil {
				return err
			}
		}
	}
	return nil
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

func (in *interp) setVar(s varSlot, v value) error {
	switch {
	case s.local:
		in.frames[len(in.frames)-1].scalars[s.idx] = v
	case s.idx == slotNR:
		in.nr = int(v.Num())
	case s.idx == slotNF:
		return in.setNF(max(int(v.Num()), 0))
	default:
		in.globals[s.idx] = v
	}
	return nil
}

// maxFields bounds NF. A record read from input cannot have more fields
// than bytes plus one, and the longest line apps.NewLineScanner admits is
// 4 MiB; only an assignment — `$1e9 = 1`, `NF = 1e9` — can ask for more, and
// would be given a string header per field it asked for.
const maxFields = 4<<20 + 1

// errStringLimit stops every string a program builds — a concatenation, a
// sprintf or printf, a sub or gsub result, a rebuilt $0 — at apps.MaxOutput.
// Doubling a string in a loop passes it in 26 steps, long before the step
// counter would notice.
var errStringLimit = runtimeErr("string longer than %d bytes", apps.MaxOutput)

// concat is the one place awk joins two strings.
func concat(a, b string) (value, error) {
	if len(a)+len(b) > apps.MaxOutput {
		return uninitialized, errStringLimit
	}
	return str(a + b), nil
}

// setNF truncates the record to n fields or pads it with empty ones.
func (in *interp) setNF(n int) error {
	if n > maxFields {
		return runtimeErr("field count %d exceeds the limit of %d", n, maxFields)
	}
	in.ensureFields()
	grow := max(n-len(in.fields), 0)
	in.steps += grow // padding costs what joining does
	in.fields = append(in.fields[:n-grow], make([]string, grow)...)
	in.recordValid = false
	return nil
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

// Record and field handling --------------------------------------------------

func (in *interp) setRecord(line string) {
	in.record = line
	in.recordValid = true
	in.fieldsValid = false
}

func (in *interp) ofs() string { return in.globals[slotOFS].Str() }
func (in *interp) ors() string { return in.globals[slotORS].Str() }

func (in *interp) ensureFields() {
	if in.fieldsValid {
		return
	}
	in.ensureRecord() // fields are only stale beside a fresh $0 (or none), so this joins nothing
	in.fields = in.splitFields(in.fields[:0], in.record, in.globals[slotFS].Str())
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
		src, done := []byte(s), 0 // src[done:] is the field being built
		for at := 0; at <= len(src); {
			st, en, ok := re.re.FindIndex(src, at)
			if !ok {
				break
			}
			if en == st { // an empty match separates nothing
				at = st + 1
				continue
			}
			dst = append(dst, s[done:st])
			done, at = en, en
		}
		return append(dst, s[done:])
	}
}

// ensureRecord rebuilds $0 from its fields after one of them was assigned.
func (in *interp) ensureRecord() error {
	if in.recordValid {
		return nil
	}
	n := len(in.ofs()) * max(len(in.fields)-1, 0)
	for _, f := range in.fields {
		n += len(f)
	}
	if n > apps.MaxOutput {
		return errStringLimit
	}
	in.record = strings.Join(in.fields, in.ofs())
	in.steps += len(in.fields) // collected at the next step
	in.recordValid = true
	return nil
}

func (in *interp) getField(i int) (value, error) {
	if i == 0 {
		err := in.ensureRecord()
		return inputStr(in.record), err
	}
	in.ensureFields()
	if i < 1 || i > len(in.fields) {
		return uninitialized, nil
	}
	return inputStr(in.fields[i-1]), nil
}

func (in *interp) setField(i int, v value) error {
	switch {
	case i == 0:
		in.setRecord(v.Str())
		return nil
	case i < 0:
		return runtimeErr("assignment to field %d", i)
	}
	in.ensureFields()
	if i > len(in.fields) {
		if err := in.setNF(i); err != nil {
			return err
		}
	}
	in.fields[i-1] = v.Str()
	in.recordValid = false
	return nil
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

// outFile returns the writer of a print redirection, opening it on first use.
func (in *interp) outFile(name string) (io.Writer, error) {
	if f, ok := in.files[name]; ok {
		return f, nil
	}
	if in.openFile == nil {
		return nil, runtimeErr("print redirection unavailable in this context")
	}
	in.impure = true
	f, err := in.openFile(name)
	if err != nil {
		return nil, runtimeErr("cannot open %q: %v", name, err)
	}
	in.files[name] = f
	return f, nil
}

// The step counter. A step is one pass of a loop or one function call, the
// only ways a program runs longer than its text; joining or padding n fields
// counts n, the one thing a single step can make expensive. The count starts
// again at every input record (and at BEGIN and END), so the thresholds are
// per record, and no program whose work is proportional to its input comes
// near the second.
const (
	// pollSteps is how often a running program looks at its context for a
	// cancel or a passed deadline, which until then only its reads did.
	pollSteps = 1 << 16
	// chargeSteps is how often it is charged as many input bytes of its
	// class, a byte a step, so a program that spins burns virtual time until
	// its deadline instead of host time with the clock frozen.
	chargeSteps = 1 << 20
	// maxSteps fails the record: the bound where there is no cost model or
	// no deadline, and one nested loops and recursion cannot multiply.
	maxSteps = 100_000_000
)

func (in *interp) startRecord() {
	in.steps, in.charged, in.nextLook = 0, 0, min(pollSteps, in.stepLimit)
}

// step counts one loop pass or call.
func (in *interp) step() error {
	if in.steps++; in.steps < in.nextLook {
		return nil
	}
	return in.look()
}

func (in *interp) look() error {
	in.impure = true
	if in.steps >= in.stepLimit {
		return runtimeErr("step limit exceeded")
	}
	in.nextLook = min(in.steps+pollSteps, in.stepLimit)
	if in.ctx == nil {
		return nil
	}
	for ; in.charged < in.steps/chargeSteps; in.charged++ {
		if in.ctx.Charge != nil {
			in.ctx.Charge(in.ctx.Class, chargeSteps)
		}
	}
	return in.ctx.Interrupted()
}

// rules runs the BEGIN rules or, over a record, the main ones, which a next
// ends. more is false after an exit, whose code is code, or an error.
func (in *interp) rules(blks []execFn, main bool) (code int, more bool, err error) {
	in.startRecord()
	for _, blk := range blks {
		if ct, err := in.run(blk); err != nil || ct == ctlExit {
			return int(in.ret.Num()), false, err
		} else if ct == ctlNext && main {
			break
		}
	}
	return 0, true, nil
}

// end runs the END rules after the main loop stopped with code and err, and
// releases what the run holds.
func (in *interp) end(code int, err error) (int, error) {
	defer in.release()
	if err != nil {
		return 1, err
	}
	// POSIX: exit in BEGIN or a main rule still runs END rules; exit inside
	// END terminates immediately.
	in.startRecord()
	for _, blk := range in.code.ends {
		switch ct, err := in.run(blk); {
		case err != nil:
			return 1, err
		case ct == ctlNext:
			return 1, runtimeErr("next inside END")
		case ct == ctlExit:
			return int(in.ret.Num()), nil
		}
	}
	return code, nil
}

// run executes one rule and turns a next or exit that a function raised
// back into its control code.
func (in *interp) run(blk execFn) (ctl, error) {
	ct, err := blk(in)
	if err == errUnwind {
		return in.pending, nil
	}
	return ct, err
}

// namedReader pairs an input stream with its FILENAME. A split-scan chunk's
// reader holds the block its lines are cut from, so scanning it takes none.
type namedReader struct {
	name  string
	r     io.Reader
	chunk bool
}
