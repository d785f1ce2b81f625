package awkx

import (
	"bytes"
	"io"

	"compstor/internal/apps"
	"compstor/internal/apps/splitscan"
)

// Split-scan support: a gawk invocation is chunkable when the program is a
// pure record scan — every rule looks only at the current record and writes
// only to stdout, so running it over newline-aligned chunks and
// concatenating the outputs in chunk order reproduces the serial run
// byte-for-byte.
//
// The splittable walker is a deny-list over the AST. Anything that carries
// state across records (NR, RSTART, assigned variables, arrays), redirects output,
// pulls extra input (getline), terminates the whole run (exit), or is
// nondeterministic across interpreter instances (rand/srand) forces the
// serial path. BEGIN/END blocks and user functions are denied outright:
// BEGIN/END must run exactly once, and function bodies could hide any of
// the above.

// SplitPlan implements splitscan.Splitter.
func (Gawk) SplitPlan(args []string) (splitscan.Plan, bool) {
	fs, assigns, progText, files, err := parseCLI(args)
	if err != nil || len(files) != 1 {
		return splitscan.Plan{}, false
	}
	prog, err := parse(progText)
	if err != nil || !splittable(prog) {
		return splitscan.Plan{}, false
	}
	k := &gawkKernel{fs: fs, assigns: assigns, progText: progText, file: files[0]}
	return splitscan.Plan{File: files[0], Kernel: k}, true
}

// splittable reports whether the program is a stateless per-record scan.
func splittable(p *program) bool {
	if len(p.begins) > 0 || len(p.ends) > 0 || len(p.funcs) > 0 {
		return false
	}
	for _, r := range p.rules {
		if r.pattern != nil && !splitExpr(r.pattern) {
			return false
		}
		if r.action != nil && !splitStmt(r.action) {
			return false
		}
	}
	return true
}

func splitStmt(s stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *stmtBlock:
		for _, st := range s.stmts {
			if !splitStmt(st) {
				return false
			}
		}
		return true
	case *exprStmt:
		return splitExpr(s.e)
	case *printStmt:
		return s.dest == nil && splitExprs(s.args)
	case *ifStmt:
		return splitExpr(s.cond) && splitStmt(s.then) && splitStmt(s.elze)
	case *loopStmt:
		return splitStmt(s.init) && splitExpr(s.cond) && splitStmt(s.post) && splitStmt(s.body)
	case *jumpStmt:
		return true
	default:
		// forInStmt, leaveStmt, deleteStmt — all stateful.
		return false
	}
}

func splitExprs(es []expr) bool {
	for _, e := range es {
		if !splitExpr(e) {
			return false
		}
	}
	return true
}

func splitExpr(e expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *numLit, *strLit, *regexLit:
		return true
	case *varRef:
		// NR and FNR number records from the file's start, and RSTART and
		// RLENGTH hold what match found in whichever record last called it:
		// a chunk worker cannot know either.
		return e.name != "NR" && e.name != "FNR" && e.name != "RSTART" && e.name != "RLENGTH"
	case *fieldRef:
		return splitExpr(e.idx)
	case *assign:
		// Only field assignment is record-local; variables and array slots
		// outlive the record.
		if _, ok := e.target.(*fieldRef); !ok {
			return false
		}
		return splitExpr(e.target) && splitExpr(e.val)
	case *incDec:
		if _, ok := e.target.(*fieldRef); !ok {
			return false
		}
		return splitExpr(e.target)
	case *binary:
		return splitExpr(e.l) && splitExpr(e.r)
	case *unary:
		return splitExpr(e.e)
	case *ternary:
		return splitExpr(e.cond) && splitExpr(e.a) && splitExpr(e.b)
	case *matchExpr:
		return splitExpr(e.l) && splitExpr(e.re)
	case *groupExpr:
		return splitExpr(e.e)
	case *builtinCall:
		switch e.name {
		case "rand", "srand":
			// Each chunk worker would get its own freshly-seeded RNG.
			return false
		case "split":
			// Writes an array.
			return false
		case "sub", "gsub":
			// A third argument is what it rewrites: only a field is
			// record-local.
			if _, field := e.args[len(e.args)-1].(*fieldRef); len(e.args) == 3 && !field {
				return false
			}
		}
		return splitExprs(e.args)
	default:
		// indexRef, inExpr, call, getlineExpr — arrays, user functions and
		// extra input are all stateful.
		return false
	}
}

type gawkKernel struct {
	fs       string
	assigns  [][2]string
	progText string
	file     string
}

// RunChunk implements splitscan.Kernel: a fresh interpreter per chunk,
// configured exactly like the serial one, scanning just the chunk's records
// into a private buffer.
func (k *gawkKernel) RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error) {
	var buf bytes.Buffer
	in, err := load(ctx, &buf, k.fs, k.assigns, k.progText)
	if err == nil {
		err = exitStatus((&session{in: in}).run([]namedReader{{name: k.file, r: r, chunk: true}}))
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Merge implements splitscan.Kernel.
func (k *gawkKernel) Merge(ctx *apps.Context, parts []any) error {
	for _, p := range parts {
		if _, err := ctx.Stdout.Write(p.([]byte)); err != nil {
			return apps.Exitf(2, "gawk: %v", err)
		}
	}
	return nil
}
