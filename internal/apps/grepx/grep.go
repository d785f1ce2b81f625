package grepx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"compstor/internal/apps"
	"compstor/internal/apps/splitscan"
	"compstor/internal/cpu"
)

// Grep is the `grep` offloadable executable.
//
// Usage: grep [-i] [-v] [-c] [-n] [-l] PATTERN [FILE...]
// With no files it reads stdin. Exit status 1 (via ExitError) when nothing
// matched, as with real grep.
type Grep struct{}

// Name implements apps.Program.
func (Grep) Name() string { return "grep" }

// Class implements apps.Program.
func (Grep) Class() cpu.Class { return cpu.ClassGrep }

type grepOpts struct {
	invert    bool
	countOnly bool
	numbered  bool
	listFiles bool
	fold      bool
}

// parseArgs splits argv into options, the pattern, and the input files.
func parseArgs(args []string) (grepOpts, string, []string, error) {
	var opts grepOpts
	i := 0
	for ; i < len(args); i++ {
		a := args[i]
		if len(a) < 2 || a[0] != '-' {
			break
		}
		for _, f := range a[1:] {
			switch f {
			case 'i':
				opts.fold = true
			case 'v':
				opts.invert = true
			case 'c':
				opts.countOnly = true
			case 'n':
				opts.numbered = true
			case 'l':
				opts.listFiles = true
			default:
				return opts, "", nil, apps.Exitf(2, "grep: unknown flag -%c", f)
			}
		}
	}
	if i >= len(args) {
		return opts, "", nil, apps.Exitf(2, "grep: missing pattern")
	}
	return opts, args[i], args[i+1:], nil
}

// Run implements apps.Program.
func (Grep) Run(ctx *apps.Context, args []string) error {
	opts, pattern, files, err := parseArgs(args)
	if err != nil {
		return err
	}
	re, err := Compile(pattern, opts.fold)
	if err != nil {
		return apps.Exitf(2, "grep: %v", err)
	}
	totalMatches := 0
	if len(files) == 0 {
		n, err := grepStream(ctx, re, opts, ctx.In(), "", false)
		if err != nil {
			return err
		}
		totalMatches += n
	}
	showName := len(files) > 1
	for _, name := range files {
		f, err := ctx.Open(name)
		if err != nil {
			return apps.Exitf(2, "grep: %v", err)
		}
		n, err := grepStream(ctx, re, opts, f, name, showName)
		f.Close()
		if err != nil {
			return err
		}
		totalMatches += n
	}
	if totalMatches == 0 {
		return apps.Exitf(1, "")
	}
	return nil
}

// grepStream scans one input, emits its per-stream trailers (count, list),
// and reports its match count.
func grepStream(ctx *apps.Context, re *Regexp, opts grepOpts, r io.Reader, name string, showName bool) (int, error) {
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	matches, err := scanMatches(re, opts, apps.NewLineScanner(r, blk), ctx.Stdout, name, showName)
	if err != nil {
		return matches, apps.Exitf(2, "grep: %s: %v", name, err)
	}
	if opts.countOnly {
		if showName {
			fmt.Fprintf(ctx.Stdout, "%s:%d\n", name, matches)
		} else {
			fmt.Fprintf(ctx.Stdout, "%d\n", matches)
		}
	}
	if opts.listFiles && matches > 0 && name != "" {
		fmt.Fprintln(ctx.Stdout, name)
	}
	return matches, nil
}

// scanMatches is the line-scan core shared by the serial path and chunk
// workers: it writes matching lines to out and returns the match count,
// leaving count/list trailers to the caller.
func scanMatches(re *Regexp, opts grepOpts, sc *bufio.Scanner, out io.Writer, name string, showName bool) (int, error) {
	matches := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		m := re.MatchLine(line)
		if m == opts.invert {
			continue
		}
		matches++
		if opts.countOnly || opts.listFiles {
			continue
		}
		prefix := ""
		if showName {
			prefix = name + ":"
		}
		if opts.numbered {
			fmt.Fprintf(out, "%s%d:%s\n", prefix, lineNo, line)
		} else {
			fmt.Fprintf(out, "%s%s\n", prefix, line)
		}
	}
	if err := sc.Err(); err != nil {
		return matches, err
	}
	return matches, nil
}

// SplitPlan implements splitscan.Splitter: a single-file grep without line
// numbering splits by lines — matching is per-line, match lines concatenate
// in chunk order, and counts sum. -n stays serial (line numbers are global
// state across the whole file).
func (Grep) SplitPlan(args []string) (splitscan.Plan, bool) {
	opts, pattern, files, err := parseArgs(args)
	if err != nil || len(files) != 1 || opts.numbered {
		return splitscan.Plan{}, false
	}
	re, err := Compile(pattern, opts.fold)
	if err != nil {
		return splitscan.Plan{}, false
	}
	return splitscan.Plan{File: files[0], Kernel: &grepKernel{re: re, opts: opts, name: files[0]}}, true
}

type grepKernel struct {
	re   *Regexp
	opts grepOpts
	name string
}

type grepPartial struct {
	matches int
	out     []byte
}

// RunChunk implements splitscan.Kernel. The chunk reader holds the block the
// lines are cut from, so the scanner takes none.
func (k *grepKernel) RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error) {
	var buf bytes.Buffer
	n, err := scanMatches(k.re, k.opts, apps.NewLineScanner(r, nil), &buf, "", false)
	if err != nil {
		return nil, apps.Exitf(2, "grep: %s: %v", k.name, err)
	}
	return grepPartial{matches: n, out: buf.Bytes()}, nil
}

// Merge implements splitscan.Kernel: concatenate match lines in chunk
// order, then the same trailers and exit status the serial single-file path
// produces.
func (k *grepKernel) Merge(ctx *apps.Context, parts []any) error {
	total := 0
	for _, p := range parts {
		gp := p.(grepPartial)
		total += gp.matches
		ctx.Stdout.Write(gp.out)
	}
	if k.opts.countOnly {
		fmt.Fprintf(ctx.Stdout, "%d\n", total)
	}
	if k.opts.listFiles && total > 0 {
		fmt.Fprintln(ctx.Stdout, k.name)
	}
	if total == 0 {
		return apps.Exitf(1, "")
	}
	return nil
}
