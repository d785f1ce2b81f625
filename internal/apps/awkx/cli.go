package awkx

import (
	"fmt"
	"io"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Gawk is the `gawk` offloadable executable.
//
// Usage: gawk [-F fs] [-v var=value]... 'program' [FILE...]
// With no files the program reads stdin.
type Gawk struct {
	memo *apps.CodecMemo // set by Program; nil computes every time
}

// Program returns gawk keeping the tapes of its runs in m (nil: every run
// computes). A repeated argv replays the tape of its last run that m admitted
// (see session) over the records it reads, and so runs no rules while they
// match.
func Program(m *apps.CodecMemo) Gawk { return Gawk{m} }

// Name implements apps.Program.
func (Gawk) Name() string { return "gawk" }

// Class implements apps.Program.
func (Gawk) Class() cpu.Class { return cpu.ClassGawk }

// parseCLI splits argv into the field separator, -v assignments, program
// text and input files.
func parseCLI(args []string) (fs string, assigns [][2]string, progText string, files []string, err error) {
	i := 0
	for i < len(args) {
		switch {
		case args[i] == "-F" && i+1 < len(args):
			fs = args[i+1]
			i += 2
		case strings.HasPrefix(args[i], "-F") && len(args[i]) > 2:
			fs = args[i][2:]
			i++
		case args[i] == "-v" && i+1 < len(args):
			kv := strings.SplitN(args[i+1], "=", 2)
			if len(kv) != 2 {
				err = apps.Exitf(2, "gawk: bad -v assignment %q", args[i+1])
				return
			}
			assigns = append(assigns, [2]string{kv[0], kv[1]})
			i += 2
		default:
			goto prog
		}
	}
prog:
	if i >= len(args) {
		err = apps.Exitf(2, "gawk: missing program text")
		return
	}
	return fs, assigns, args[i], args[i+1:], nil
}

// Run implements apps.Program.
func (g Gawk) Run(ctx *apps.Context, args []string) error {
	fs, assigns, progText, files, err := parseCLI(args)
	if err != nil {
		return err
	}
	key := fmt.Appendf(nil, "%q", args)
	kept, seen := g.memo.Recall("gawk", key)
	s := &session{stdout: ctx.Stdout}
	s.old, _ = kept.(tape)
	out := ctx.Stdout
	if s.keep = seen && s.old == nil; s.keep {
		out = s
	}
	s.load = func() (*interp, error) { return load(ctx, out, fs, assigns, progText) }
	if s.old == nil {
		if s.in, err = s.load(); err != nil {
			return err
		}
	}
	var inputs []namedReader
	if len(files) == 0 {
		inputs = append(inputs, namedReader{name: "", r: ctx.In()})
	}
	for _, name := range files {
		f, err := ctx.Open(name)
		if err != nil {
			return apps.Exitf(2, "gawk: %v", err)
		}
		defer f.Close()
		inputs = append(inputs, namedReader{name: name, r: f})
	}
	// A run is kept if it read every input to its end, exited 0, and looked
	// at nothing but its records.
	code, err := s.run(inputs)
	if s.in != nil && !s.in.impure && s.eofs == len(inputs) && code == 0 && err == nil {
		var v any // none at first sight
		if s.keep {
			v = s.rec
		}
		g.memo.Keep("gawk", key, v, len(key)+s.size)
	}
	return exitStatus(code, err)
}

// load compiles progText into an interpreter printing to out, configured.
func load(ctx *apps.Context, out io.Writer, fs string, assigns [][2]string, progText string) (*interp, error) {
	prog, err := parse(progText)
	if err != nil {
		return nil, apps.Exitf(2, "gawk: %v", err)
	}
	in := newInterp(prog, out)
	if err := in.configure(ctx, fs, assigns); err != nil {
		return nil, apps.Exitf(2, "gawk: %v", err)
	}
	return in, nil
}

// exitStatus makes a run's result its exit status.
func exitStatus(code int, err error) error {
	switch {
	case err != nil:
		return apps.Exitf(2, "gawk: %v", err)
	case code != 0:
		return apps.Exitf(code, "")
	}
	return nil
}
