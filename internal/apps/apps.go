// Package apps defines the execution environment for "offloadable
// executables": the programs that run unmodified on either the host CPU or
// the CompStor in-storage processing subsystem.
//
// A Program is written against plain io.Reader/io.Writer streams and the
// in-SSD filesystem, exactly like a small Unix tool. Platform cost accrues
// automatically: every byte a program consumes from any input stream is
// charged to the executing platform's calibrated throughput for the
// program's application class, advancing virtual time on the core the task
// holds. Programs therefore contain no simulation code at all — the same
// implementation "runs" on the ARM ISPS and on the Xeon host, differing
// only in the cost model attached to the Context, which is the paper's
// central porting claim.
package apps

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"

	"compstor/internal/cpu"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// Program is an offloadable executable.
type Program interface {
	// Name is the command name used in shell lines and minion commands.
	Name() string
	// Class is the cost class used by the platform calibration table.
	Class() cpu.Class
	// Run executes the program. A non-nil error is a non-zero exit status.
	Run(ctx *Context, args []string) error
}

// ChargeFunc advances virtual time (and energy) for n input bytes of class
// c work. The executor binds it to a held core.
type ChargeFunc func(c cpu.Class, n int64)

// Context is everything a running program can see.
type Context struct {
	Proc   *sim.Proc
	FS     *minfs.View // in-SSD namespace; may be nil for pure-stream tools
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer

	Class  cpu.Class // class used for auto-charging, set by the executor
	Charge ChargeFunc

	// Deadline, when non-zero, is the virtual time past which the task must
	// abort: every charged read/write first calls Interrupted and surfaces
	// ErrDeadline. The executor additionally caps compute quanta at the
	// deadline, so an expired task stops consuming its core promptly.
	Deadline sim.Time
	// Cancel, when non-nil, is the task's kill switch (see CancelToken).
	Cancel *CancelToken

	// Lookup resolves program names, enabling the shell to spawn other
	// registered programs. Nil outside shell contexts.
	Lookup func(name string) (Program, bool)
}

// chargeBytes charges n input bytes at the context's class, if a cost model
// is attached.
func (c *Context) chargeBytes(n int) {
	if c.Charge != nil && n > 0 {
		c.Charge(c.Class, int64(n))
	}
}

// In returns the program's stdin wrapped for automatic cost charging.
func (c *Context) In() io.Reader {
	if c.Stdin == nil {
		return bytes.NewReader(nil)
	}
	return &chargingReader{ctx: c, r: c.Stdin}
}

// ErrNoFS is returned when a program needs the filesystem but none is
// mounted in its context.
var ErrNoFS = errors.New("apps: no filesystem in context")

// Open opens a named file for reading, wrapped for cost charging. Through
// the read pipeline (minfs.View.Pipelined) a stream charges only the CPU
// share of its class's calibrated rate (cpu.StreamCPUFraction); the stall
// share is paid as explicit, overlapped flash I/O.
func (c *Context) Open(name string) (io.ReadCloser, error) { return c.open(name, 0, false) }

// OpenAt opens a named file like Open with the cursor positioned at off —
// the entry point for chunked scans, where each worker starts mid-file.
// The same pipelined charge split applies, and the seek arms a fresh
// sequential-read streak so every chunk drives its own prefetch window
// (which is why Open, even at offset 0, does not seek).
func (c *Context) OpenAt(name string, off int64) (io.ReadCloser, error) {
	return c.open(name, off, true)
}

func (c *Context) open(name string, off int64, seek bool) (io.ReadCloser, error) {
	if c.FS == nil {
		return nil, ErrNoFS
	}
	f, err := c.FS.Open(c.Proc, name)
	if err != nil {
		return nil, err
	}
	if seek {
		if err := f.SeekTo(off); err != nil {
			f.Close(c.Proc)
			return nil, err
		}
	}
	scale := 1.0
	if c.FS.Pipelined() {
		scale = cpu.StreamCPUFraction(c.Class)
	}
	return &chargingFile{chargingReader: chargingReader{ctx: c, r: fsReader{f: f, p: c.Proc}, scale: scale}, f: f}, nil
}

// Create creates a named output file, atomically replacing any file of that
// name (minfs.View.CreateTrunc). Output bytes charge the platform's
// streaming-copy class (cpu.ClassCat) — moving produced bytes into the
// filesystem costs core time just like consuming input does.
// The program's algorithmic cost stays calibrated on *input* bytes (the
// paper's per-GB normalisation), so writes deliberately do not charge the
// program's own class: that would double-count work the input calibration
// already covers.
func (c *Context) Create(name string) (io.WriteCloser, error) {
	if c.FS == nil {
		return nil, ErrNoFS
	}
	f, err := c.FS.CreateTrunc(c.Proc, name)
	if err != nil {
		return nil, err
	}
	return &chargingWriter{ctx: c, f: f}, nil
}

// fsReader adapts a minfs file to io.Reader with a pinned proc.
type fsReader struct {
	f *minfs.File
	p *sim.Proc
}

func (r fsReader) Read(b []byte) (int, error) { return r.f.Read(r.p, b) }

// chargingReader charges the context for every byte read through it.
// A scale in (0,1) charges only that fraction of each byte — the streaming
// CPU share used for pipelined file reads; zero means unscaled (1.0).
type chargingReader struct {
	ctx   *Context
	r     io.Reader
	scale float64
}

func (r *chargingReader) Read(b []byte) (int, error) {
	if err := r.ctx.Interrupted(); err != nil {
		return 0, err
	}
	n, err := r.r.Read(b)
	charged := n
	if r.scale > 0 && r.scale < 1 && n > 0 {
		charged = int(math.Ceil(float64(n) * r.scale))
	}
	r.ctx.chargeBytes(charged)
	return n, err
}

// chargingWriter charges the streaming-copy rate for every byte written
// through it (see Context.Create for why writes do not charge the
// program's own class).
type chargingWriter struct {
	ctx *Context
	f   *minfs.File
}

func (w *chargingWriter) Write(b []byte) (int, error) {
	if err := w.ctx.Interrupted(); err != nil {
		return 0, err
	}
	n, err := w.f.Write(w.ctx.Proc, b)
	if w.ctx.Charge != nil && n > 0 {
		w.ctx.Charge(cpu.ClassCat, int64(n))
	}
	return n, err
}

func (w *chargingWriter) Close() error { return w.f.Close(w.ctx.Proc) }

type chargingFile struct {
	chargingReader
	f *minfs.File
}

func (f *chargingFile) Close() error { return f.f.Close(f.ctx.Proc) }

// ExitError carries a program's non-zero exit code with a message. When the
// failure was caused by another error (an I/O error surfacing through a
// tool), Err retains it so callers can classify the failure with errors.Is —
// the cluster uses this to tell a media fault from a bad task.
type ExitError struct {
	Code int
	Msg  string
	Err  error
}

func (e *ExitError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("exit status %d", e.Code)
	}
	return e.Msg
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *ExitError) Unwrap() error { return e.Err }

// Exitf builds an ExitError. Any error among the format arguments is kept
// as the ExitError's cause (the last one wins), so tools that report an
// underlying failure with %v do not sever the error chain.
func Exitf(code int, format string, args ...any) *ExitError {
	e := &ExitError{Code: code, Msg: fmt.Sprintf(format, args...)}
	for _, a := range args {
		if err, ok := a.(error); ok {
			e.Err = err
		}
	}
	return e
}

// ExitCode extracts a conventional exit code from a Run error: 0 for nil,
// the embedded code for ExitError, 1 otherwise.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *ExitError
	if errors.As(err, &ee) {
		return ee.Code
	}
	return 1
}

// Registry maps command names to programs. The ISPS agent holds one per
// device; dynamic task loading adds entries at runtime.
type Registry struct {
	m map[string]Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Program)} }

// Register installs a program; re-registering a name replaces it (dynamic
// task loading semantics) and reports whether a previous entry existed.
func (r *Registry) Register(p Program) bool {
	_, existed := r.m[p.Name()]
	r.m[p.Name()] = p
	return existed
}

// Lookup resolves a command name.
func (r *Registry) Lookup(name string) (Program, bool) {
	p, ok := r.m[name]
	return p, ok
}

// Names returns all registered command names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent copy (each device gets its own registry so
// dynamic loads stay device-local).
func (r *Registry) Clone() *Registry { return &Registry{m: maps.Clone(r.m)} }

// Func adapts a plain function to a Program.
type Func struct {
	ProgName  string
	CostClass cpu.Class
	Body      func(ctx *Context, args []string) error
}

// Name implements Program.
func (f Func) Name() string { return f.ProgName }

// Class implements Program.
func (f Func) Class() cpu.Class {
	if f.CostClass == "" {
		return cpu.ClassDefault
	}
	return f.CostClass
}

// Run implements Program.
func (f Func) Run(ctx *Context, args []string) error { return f.Body(ctx, args) }
