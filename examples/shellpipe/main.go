// Shellpipe: OS-level flexibility — shell pipelines and dynamic task
// loading inside the SSD.
//
// The CompStor differentiator in the paper's Table I is a real OS in the
// device: arbitrary shell command lines run in-place, and new executables
// install at runtime without reflashing. This example runs the paper's
// shell tools (gunzip, a regular-expression grep, head | tail | cut | tr,
// echo), an awk program with functions and loops, and a word-frequency
// pipeline inside the device, then hot-loads a custom analytics program and
// runs it like any other executable.
//
//	go run ./examples/shellpipe
package main

import (
	"bufio"
	"fmt"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/apps/gzipx"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

func main() {
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
	})
	unit := sys.Device(0)

	sys.Go("client", func(p *sim.Proc) {
		// Stage a compressed book — the device will decompress it in place.
		book := textgen.Book(3, 64<<10)
		z, err := gzipx.Compress(book)
		if err != nil {
			panic(err)
		}
		if err := unit.Client.FS().WriteFile(p, "book.txt.gz", z); err != nil {
			panic(err)
		}

		// run sends one minion and insists it came back OK.
		run := func(cmd core.Command) *core.Response {
			resp, err := unit.Client.Run(p, cmd)
			if err != nil {
				panic(err)
			}
			if resp.Status != core.StatusOK {
				panic(fmt.Sprintf("minion status %v: %s", resp.Status, resp.Error))
			}
			return resp
		}

		// A whole shell script as one minion: decompress, count the chapter
		// headings with a regular expression — no data leaves the drive.
		resp := run(core.Command{
			Script: `gunzip book.txt.gz ; grep -c '^CHAPTER [0-9]+' book.txt`,
		})
		fmt.Printf("chapters found in-situ: %s", resp.Stdout)

		// Unmodified shell tools in one pipeline: lines 10-12 of the text,
		// the first three words of each, upper-cased; then a case-blind count.
		resp = run(core.Command{
			Script: `grep -v '^$' book.txt | head -n 12 | tail -n 3 | cut -d ' ' -f 1-3 | tr a-z A-Z ; echo lines naming a chapter, any case: ; grep -ci chapter book.txt`,
		})
		fmt.Println("grep -v | head | tail | cut | tr, then echo and grep -ci:")
		printIndented(resp.Stdout)

		// An awk program with a function, loops and the string built-ins:
		// words and capitalised words per chapter.
		resp = run(core.Command{Exec: "gawk", Args: []string{chapterReport, "book.txt"}})
		fmt.Println("per-chapter report (awk, inside the SSD):")
		printIndented(resp.Stdout)

		// Longer pipeline: word-frequency top-5 via sort|uniq|sort|head.
		resp = run(core.Command{
			Script: `gawk '{ for (i=1; i<=NF; i++) print $i }' book.txt | sort | uniq -c | sort -rn | head -n 5`,
		})
		fmt.Println("top-5 words (computed inside the SSD):")
		printIndented(resp.Stdout)

		// Dynamic task loading: install a custom "readability" analyzer at
		// runtime (the paper: "load tasks into a computational SSD at
		// runtime"), then use it like any other executable — even in a
		// pipeline.
		err = unit.Client.LoadTask(p, apps.Func{
			ProgName:  "readability",
			CostClass: cpu.ClassGawk,
			Body: func(ctx *apps.Context, args []string) error {
				in, err := ctx.Open(args[0])
				if err != nil {
					return err
				}
				defer in.Close()
				words, sentences, letters := 0, 0, 0
				sc := bufio.NewScanner(in)
				sc.Buffer(make([]byte, 64<<10), 1<<20)
				for sc.Scan() {
					for _, w := range strings.Fields(sc.Text()) {
						words++
						letters += len(w)
						if strings.HasSuffix(w, ".") {
							sentences++
						}
					}
				}
				if words == 0 || sentences == 0 {
					return apps.Exitf(1, "readability: empty input")
				}
				// Automated Readability Index.
				ari := 4.71*float64(letters)/float64(words) +
					0.5*float64(words)/float64(sentences) - 21.43
				fmt.Fprintf(ctx.Stdout, "ARI %.1f (%d words, %d sentences)\n", ari, words, sentences)
				return nil
			},
		}, 384<<10)
		if err != nil {
			panic(err)
		}
		resp = run(core.Command{Exec: "readability", Args: []string{"book.txt"}})
		fmt.Printf("hot-loaded analyzer: %s", resp.Stdout)

		st, _ := unit.Client.Status(p)
		fmt.Printf("device now has %d programs installed\n", len(st.Programs))
	})
	sys.Run()
}

// chapterReport counts, per chapter, the words and the capitalised words
// (match/substr in a loop), and finds the longest last word of a line.
const chapterReport = `
function caps(s,    n) {
	n = 0
	while (match(s, /[A-Z][a-z]+/)) {
		n++
		s = substr(s, RSTART + RLENGTH)
	}
	return n
}
/^CHAPTER/ { split($0, f, " "); ch = f[2]; next }
NF > 0 {
	words[ch] += NF
	names[ch] += caps($0)
	w = $NF
	sub(/[.,]$/, "", w)
	if (length(w) > length(longest)) longest = w
}
END {
	i = 1
	do {
		printf "chapter %d: %d words, %d capitalised\n", i, words[i], names[i]
		i++
	} while (i in words)
	print sprintf("longest last word: %s (%d letters)", longest, length(longest))
}`

// printIndented prints each line of out, trimmed and indented.
func printIndented(out []byte) {
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		fmt.Printf("  %s\n", strings.TrimSpace(sc.Text()))
	}
}
