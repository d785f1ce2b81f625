package awkx

import (
	"io"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Gawk is the `gawk` offloadable executable.
//
// Usage: gawk [-F fs] [-v var=value]... 'program' [FILE...]
// With no files the program reads stdin.
type Gawk struct{}

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
func (Gawk) Run(ctx *apps.Context, args []string) error {
	fs, assigns, progText, files, err := parseCLI(args)
	if err != nil {
		return err
	}
	in, err := load(ctx, ctx.Stdout, fs, assigns, progText)
	if err != nil {
		return err
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
	return in.exitStatus(inputs)
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

// exitStatus runs the program and makes its result the exit status.
func (in *interp) exitStatus(inputs []namedReader) error {
	switch code, err := in.Run(inputs); {
	case err != nil:
		return apps.Exitf(2, "gawk: %v", err)
	case code != 0:
		return apps.Exitf(code, "")
	}
	return nil
}
