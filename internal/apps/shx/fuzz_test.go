package shx_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/coreutils"
	"compstor/internal/apps/grepx"
	"compstor/internal/apps/shx"
)

// FuzzShxExec runs arbitrary script text over the coreutils, grep and gawk —
// whose programs end at its step limit if not before — on an in-memory
// filesystem. Whatever the text, the shell must come back with an exit
// status rather than a panic (since sim processes became coroutines a panic
// in a task body takes the whole simulation down), and what its parser
// accepts must survive being written out and parsed again.
func FuzzShxExec(f *testing.F) {
	for _, script := range []string{
		`tail -n 0 in.txt`,
		`echo 'unterminated`,
		`cat in.txt | | wc`,
		`sort < in.txt > in.txt ; cat in.txt`,
		`cat in.txt > in.txt`,
		`grep -c the in.txt && echo "yes \"quoted\"" || echo no`,
		`cut -d' ' -f1-3 in.txt | tr a-z A-Z | uniq -c | sort -rn | head -n 2 > out.txt ; cksum out.txt`,
		`cut -f 1-999999999999 in.txt`,
		`tail -n 999999999999 < in.txt | wc -l`,
		`&& wc ; || cat < "" # comment`,
		"echo a\\\necho b\n\ncat ghost.txt",
		`gawk 'BEGIN { while (1) {} }' in.txt`,
		`gawk 'BEGIN { for (;;) for (;;) {} }' | wc`,
		`gawk 'function f() { f() } BEGIN { f() }' ; gawk '{ n += NF } END { print n > "n.txt" }' in.txt`,
	} {
		f.Add(script)
	}
	reg := apps.NewRegistry()
	for _, p := range []apps.Program{
		coreutils.Cat{}, coreutils.WC{}, coreutils.Head{}, coreutils.Tail{}, coreutils.Sort{}, coreutils.Uniq{},
		coreutils.Cut{}, coreutils.Tr{}, coreutils.Echo{}, coreutils.Cksum{}, grepx.Grep{},
		// gawk's steps are bounded; what it prints on the way is not.
		apps.Func{ProgName: "gawk", Body: func(ctx *apps.Context, args []string) error {
			capped := *ctx
			capped.Stdout = &cappedWriter{w: ctx.Stdout, left: 1 << 20}
			return awkx.Gawk{}.Run(&capped, args)
		}},
	} {
		reg.Register(p)
	}
	files := map[string]string{"in.txt": strings.Repeat("the quick brown fox\njumps over the lazy dog\n", 40)}
	f.Fuzz(func(t *testing.T, script string) {
		for _, line := range strings.Split(script, "\n") {
			if err := shx.RoundTrip(line); err != nil {
				t.Fatal(err)
			}
		}
		runShellWith(t, reg, files, script)
	})
}

// cappedWriter fails once more than it allows has been written.
type cappedWriter struct {
	w    io.Writer
	left int
}

func (c *cappedWriter) Write(b []byte) (int, error) {
	if c.left -= len(b); c.left < 0 {
		return 0, errors.New("output cap exceeded")
	}
	return c.w.Write(b)
}
