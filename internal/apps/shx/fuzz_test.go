package shx_test

import (
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/coreutils"
	"compstor/internal/apps/grepx"
	"compstor/internal/apps/shx"
)

// FuzzShxExec runs arbitrary script text over the coreutils and grep — the
// tools that always terminate; gawk can be told to loop — on an in-memory
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
	} {
		f.Add(script)
	}
	reg := apps.NewRegistry()
	for _, p := range []apps.Program{
		coreutils.Cat{}, coreutils.WC{}, coreutils.Head{}, coreutils.Tail{}, coreutils.Sort{}, coreutils.Uniq{},
		coreutils.Cut{}, coreutils.Tr{}, coreutils.Echo{}, coreutils.Cksum{}, grepx.Grep{},
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
