// Package coreutils provides the small Unix tools available inside the
// CompStor in-storage Linux environment: cat, wc, head, tail, sort, uniq,
// cut, tr, echo, and cksum. Together with the shell (shx) they back the
// paper's claim that arbitrary shell command lines run in-place.
package coreutils

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/apps/splitscan"
	"compstor/internal/cpu"
)

// openAll opens the named files, or yields stdin when none are given.
func openAll(ctx *apps.Context, names []string) ([]io.Reader, func(), error) {
	if len(names) == 0 {
		return []io.Reader{ctx.In()}, func() {}, nil
	}
	var readers []io.Reader
	var closers []io.Closer
	for _, n := range names {
		f, err := ctx.Open(n)
		if err != nil {
			for _, c := range closers {
				c.Close()
			}
			return nil, nil, err
		}
		readers = append(readers, f)
		closers = append(closers, f)
	}
	return readers, func() {
		for _, c := range closers {
			c.Close()
		}
	}, nil
}

// Cat concatenates files (or stdin) to stdout.
type Cat struct{}

// Name implements apps.Program.
func (Cat) Name() string { return "cat" }

// Class implements apps.Program.
func (Cat) Class() cpu.Class { return cpu.ClassCat }

// Run implements apps.Program.
func (Cat) Run(ctx *apps.Context, args []string) error {
	rs, done, err := openAll(ctx, args)
	if err != nil {
		return apps.Exitf(1, "cat: %v", err)
	}
	defer done()
	for _, r := range rs {
		if _, err := io.Copy(ctx.Stdout, r); err != nil {
			return apps.Exitf(1, "cat: %v", err)
		}
	}
	return nil
}

// SplitPlan implements splitscan.Splitter: a single-file cat is a pure
// concatenation of its chunks.
func (Cat) SplitPlan(args []string) (splitscan.Plan, bool) {
	if len(args) != 1 {
		return splitscan.Plan{}, false
	}
	return splitscan.Plan{File: args[0], Kernel: catKernel{}}, true
}

type catKernel struct{}

// RunChunk implements splitscan.Kernel.
func (catKernel) RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, apps.Exitf(1, "cat: %v", err)
	}
	return buf.Bytes(), nil
}

// Merge implements splitscan.Kernel.
func (catKernel) Merge(ctx *apps.Context, parts []any) error {
	for _, p := range parts {
		if _, err := ctx.Stdout.Write(p.([]byte)); err != nil {
			return apps.Exitf(1, "cat: %v", err)
		}
	}
	return nil
}

// WC counts lines, words and bytes.
type WC struct{}

// Name implements apps.Program.
func (WC) Name() string { return "wc" }

// Class implements apps.Program.
func (WC) Class() cpu.Class { return cpu.ClassWC }

// Run implements apps.Program.
func (WC) Run(ctx *apps.Context, args []string) error {
	onlyLines, onlyWords, onlyBytes, files, err := wcArgs(args)
	if err != nil {
		return err
	}
	rs, done, oerr := openAll(ctx, files)
	if oerr != nil {
		return apps.Exitf(1, "wc: %v", oerr)
	}
	defer done()
	var tl, tw, tb int64
	for i, r := range rs {
		l, w, b, err := countStream(r)
		if err != nil {
			return apps.Exitf(1, "wc: %v", err)
		}
		name := ""
		if len(files) > 0 {
			name = files[i]
		}
		wcEmit(ctx.Stdout, onlyLines, onlyWords, onlyBytes, l, w, b, name)
		tl, tw, tb = tl+l, tw+w, tb+b
	}
	if len(rs) > 1 {
		wcEmit(ctx.Stdout, onlyLines, onlyWords, onlyBytes, tl, tw, tb, "total")
	}
	return nil
}

func wcArgs(args []string) (onlyLines, onlyWords, onlyBytes bool, files []string, err error) {
	for _, a := range args {
		switch a {
		case "-l":
			onlyLines = true
		case "-w":
			onlyWords = true
		case "-c":
			onlyBytes = true
		default:
			if strings.HasPrefix(a, "-") {
				err = apps.Exitf(1, "wc: unknown flag %s", a)
				return
			}
			files = append(files, a)
		}
	}
	return
}

// countStream tallies lines, words and bytes of one input, a block at a
// time. Word state resets at every newline, so counts taken over
// newline-aligned chunks sum to exactly the whole-file counts — the property
// the split-scan kernel relies on.
func countStream(r io.Reader) (l, w, b int64, err error) {
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	afterSpace := true // a word starts at a non-space byte that follows a space
	for {
		n, rerr := readBlock(r, blk[:])
		b += int64(n)
		l += int64(bytes.Count(blk[:n], []byte{'\n'}))
		w += int64(wordStarts(blk[:n], &afterSpace))
		if rerr == io.EOF {
			return l, w, b, nil
		}
		if rerr != nil {
			return l, w, b, rerr
		}
	}
}

// wordStarts counts the bytes of buf that are not a space (' ', \t, \n, \r
// and nothing else) and follow one, eight at a time with no branch on the
// data. afterSpace carries the last byte's class from block to block.
func wordStarts(buf []byte, afterSpace *bool) (starts int) {
	const ones, low7, high = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	// differs sets the high bit of every byte of x that is not c.
	differs := func(x uint64, c byte) uint64 { v := x ^ ones*uint64(c); return (v&low7 + low7) | v }
	var carry uint64 // the high bit of its lowest byte: the byte before is a space
	if *afterSpace {
		carry = 0x80
	}
	for ; len(buf) >= 8; buf = buf[8:] {
		x := binary.LittleEndian.Uint64(buf)
		space := ^(differs(x, ' ') & differs(x, '\t') & differs(x, '\n') & differs(x, '\r')) & high
		starts += bits.OnesCount64((space<<8 | carry) &^ space)
		carry = space >> 56
	}
	*afterSpace = carry != 0
	for _, c := range buf {
		space := c == ' ' || c == '\t' || c == '\n' || c == '\r'
		if *afterSpace && !space {
			starts++
		}
		*afterSpace = space
	}
	return starts
}

// wcEmit prints the selected counts (all three when none is selected) in
// lines, words, bytes order: a lone count bare, several in columns.
func wcEmit(out io.Writer, onlyLines, onlyWords, onlyBytes bool, l, w, b int64, name string) {
	all := !onlyLines && !onlyWords && !onlyBytes
	var cols [3]any
	n := 0
	for i, on := range [3]bool{onlyLines || all, onlyWords || all, onlyBytes || all} {
		if on {
			cols[n] = [3]int64{l, w, b}[i]
			n++
		}
	}
	format := "%d"
	if n > 1 {
		format = "%7d %7d %7d"[:4*n-1]
	}
	fmt.Fprintf(out, format, cols[:n]...)
	if name != "" {
		fmt.Fprintf(out, " %s", name)
	}
	fmt.Fprintln(out)
}

// SplitPlan implements splitscan.Splitter: per-chunk counts over
// newline-aligned chunks are associative, the merge just sums them.
func (WC) SplitPlan(args []string) (splitscan.Plan, bool) {
	onlyLines, onlyWords, onlyBytes, files, err := wcArgs(args)
	if err != nil || len(files) != 1 {
		return splitscan.Plan{}, false
	}
	k := wcKernel{onlyLines: onlyLines, onlyWords: onlyWords, onlyBytes: onlyBytes, name: files[0]}
	return splitscan.Plan{File: files[0], Kernel: k}, true
}

type wcKernel struct {
	onlyLines, onlyWords, onlyBytes bool
	name                            string
}

type wcPartial struct{ l, w, b int64 }

// RunChunk implements splitscan.Kernel.
func (wcKernel) RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error) {
	l, w, b, err := countStream(r)
	if err != nil {
		return nil, apps.Exitf(1, "wc: %v", err)
	}
	return wcPartial{l: l, w: w, b: b}, nil
}

// Merge implements splitscan.Kernel.
func (k wcKernel) Merge(ctx *apps.Context, parts []any) error {
	var l, w, b int64
	for _, p := range parts {
		wp := p.(wcPartial)
		l, w, b = l+wp.l, w+wp.w, b+wp.b
	}
	wcEmit(ctx.Stdout, k.onlyLines, k.onlyWords, k.onlyBytes, l, w, b, k.name)
	return nil
}

// Head prints the first N lines (default 10).
type Head struct{}

// Name implements apps.Program.
func (Head) Name() string { return "head" }

// Class implements apps.Program.
func (Head) Class() cpu.Class { return cpu.ClassCat }

// Run implements apps.Program.
func (Head) Run(ctx *apps.Context, args []string) error {
	return headTail(ctx, "head", args, func(sc *bufio.Scanner, n int) {
		for i := 0; i < n && sc.Scan(); i++ {
			fmt.Fprintln(ctx.Stdout, sc.Text())
		}
	})
}

// Tail prints the last N lines (default 10).
type Tail struct{}

// Name implements apps.Program.
func (Tail) Name() string { return "tail" }

// Class implements apps.Program.
func (Tail) Class() cpu.Class { return cpu.ClassCat }

// Run implements apps.Program.
func (Tail) Run(ctx *apps.Context, args []string) error {
	var ring []string // line i of the input sits in slot i % n, once n lines came
	return headTail(ctx, "tail", args, func(sc *bufio.Scanner, n int) {
		ring = ring[:0]
		lines := 0
		for sc.Scan() {
			if len(ring) < n {
				ring = append(ring, sc.Text())
			} else if n > 0 {
				ring[lines%n] = sc.Text()
			}
			lines++
		}
		for i := max(lines-n, 0); sc.Err() == nil && i < lines; i++ {
			fmt.Fprintln(ctx.Stdout, ring[i%n])
		}
	})
}

// headTail runs head or tail: each scans one input for its share of the n
// lines asked for; a read that failed is the tool's exit 1.
func headTail(ctx *apps.Context, tool string, args []string, each func(sc *bufio.Scanner, n int)) error {
	n, files, err := headTailArgs(args)
	if err != nil {
		return apps.Exitf(1, "%s: %v", tool, err)
	}
	rs, done, err := openAll(ctx, files)
	if err != nil {
		return apps.Exitf(1, "%s: %v", tool, err)
	}
	defer done()
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	for _, r := range rs {
		sc := apps.NewLineScanner(r, blk)
		each(sc, n)
		if err := sc.Err(); err != nil {
			return apps.Exitf(1, "%s: %v", tool, err)
		}
	}
	return nil
}

func headTailArgs(args []string) (int, []string, error) {
	n := 10
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-n" && i+1 < len(args):
			v, err := strconv.Atoi(args[i+1])
			if err != nil || v < 0 {
				return 0, nil, fmt.Errorf("bad count %q", args[i+1])
			}
			n = v
			i++
		case strings.HasPrefix(a, "-n"):
			v, err := strconv.Atoi(a[2:])
			if err != nil || v < 0 {
				return 0, nil, fmt.Errorf("bad count %q", a)
			}
			n = v
		case strings.HasPrefix(a, "-"):
			return 0, nil, fmt.Errorf("unknown flag %s", a)
		default:
			files = append(files, a)
		}
	}
	return n, files, nil
}

// eachLine calls line with every line of the named files (or stdin), in
// order, for sort, uniq and cut; a failure is tool's exit 1. Each input is
// wrapped in a 64 KiB buffered reader so that it always sees large device
// reads: even the 64 KiB scanner shrinks its read size while a partial
// token sits in its buffer.
func eachLine(ctx *apps.Context, tool string, files []string, line func(string)) error {
	rs, done, err := openAll(ctx, files)
	if err != nil {
		return apps.Exitf(1, "%s: %v", tool, err)
	}
	defer done()
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	for _, r := range rs {
		sc := apps.NewLineScanner(bufio.NewReaderSize(r, apps.BlockSize), blk)
		for sc.Scan() {
			line(sc.Text())
		}
		if err := sc.Err(); err != nil {
			return apps.Exitf(1, "%s: %v", tool, err)
		}
	}
	return nil
}

// readBlock reads into b once, the way a drained bufio.Reader fills: a
// reader that keeps returning (0, nil) is io.ErrNoProgress after 100 tries.
func readBlock(r io.Reader, b []byte) (int, error) {
	for i := 0; i < 100; i++ {
		if n, err := r.Read(b); n > 0 || err != nil {
			return n, err
		}
	}
	return 0, io.ErrNoProgress
}

// Sort sorts lines (-r reverse, -n numeric, -u unique).
type Sort struct{}

// Name implements apps.Program.
func (Sort) Name() string { return "sort" }

// Class implements apps.Program.
func (Sort) Class() cpu.Class { return cpu.ClassSort }

// Run implements apps.Program.
func (Sort) Run(ctx *apps.Context, args []string) error {
	var rev, numeric, uniq bool
	var files []string
	for _, a := range args {
		switch a {
		case "-r":
			rev = true
		case "-n":
			numeric = true
		case "-u":
			uniq = true
		case "-rn", "-nr":
			rev, numeric = true, true
		default:
			if strings.HasPrefix(a, "-") {
				return apps.Exitf(1, "sort: unknown flag %s", a)
			}
			files = append(files, a)
		}
	}
	var lines []string
	if err := eachLine(ctx, "sort", files, func(l string) { lines = append(lines, l) }); err != nil {
		return err
	}
	less := func(a, b string) bool { return a < b }
	if numeric {
		less = func(a, b string) bool {
			fa, _ := strconv.ParseFloat(strings.TrimSpace(leadingNum(a)), 64)
			fb, _ := strconv.ParseFloat(strings.TrimSpace(leadingNum(b)), 64)
			if fa != fb {
				return fa < fb
			}
			return a < b
		}
	}
	sort.SliceStable(lines, func(i, j int) bool {
		if rev {
			return less(lines[j], lines[i])
		}
		return less(lines[i], lines[j])
	})
	var prev string
	first := true
	for _, l := range lines {
		if uniq && !first && l == prev {
			continue
		}
		fmt.Fprintln(ctx.Stdout, l)
		prev, first = l, false
	}
	return nil
}

func leadingNum(s string) string {
	t := strings.TrimSpace(s)
	end := 0
	for end < len(t) && (t[end] == '-' || t[end] == '+' || t[end] == '.' || (t[end] >= '0' && t[end] <= '9')) {
		end++
	}
	return t[:end]
}

// Uniq collapses adjacent duplicate lines (-c prefixes counts).
type Uniq struct{}

// Name implements apps.Program.
func (Uniq) Name() string { return "uniq" }

// Class implements apps.Program.
func (Uniq) Class() cpu.Class { return cpu.ClassWC }

// Run implements apps.Program.
func (Uniq) Run(ctx *apps.Context, args []string) error {
	var counts bool
	var files []string
	for _, a := range args {
		switch {
		case a == "-c":
			counts = true
		case strings.HasPrefix(a, "-"):
			return apps.Exitf(1, "uniq: unknown flag %s", a)
		default:
			files = append(files, a)
		}
	}
	var prev string
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		if counts {
			fmt.Fprintf(ctx.Stdout, "%7d %s\n", run, prev)
		} else {
			fmt.Fprintln(ctx.Stdout, prev)
		}
	}
	err := eachLine(ctx, "uniq", files, func(l string) {
		if run > 0 && l == prev {
			run++
			return
		}
		flush()
		prev, run = l, 1
	})
	if err != nil {
		return err
	}
	flush()
	return nil
}

// Cut extracts fields (-d delim -f list), each selected field once, in
// input order.
type Cut struct{}

// Name implements apps.Program.
func (Cut) Name() string { return "cut" }

// Class implements apps.Program.
func (Cut) Class() cpu.Class { return cpu.ClassWC }

// Run implements apps.Program.
func (Cut) Run(ctx *apps.Context, args []string) error {
	delim := "\t"
	var fieldSpec string
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-d" && i+1 < len(args):
			delim = args[i+1]
			i++
		case strings.HasPrefix(a, "-d"):
			delim = a[2:]
		case a == "-f" && i+1 < len(args):
			fieldSpec = args[i+1]
			i++
		case strings.HasPrefix(a, "-f"):
			fieldSpec = a[2:]
		case strings.HasPrefix(a, "-"):
			return apps.Exitf(1, "cut: unknown flag %s", a)
		default:
			files = append(files, a)
		}
	}
	if fieldSpec == "" {
		return apps.Exitf(1, "cut: -f required")
	}
	wanted, err := parseFieldList(fieldSpec)
	if err != nil {
		return apps.Exitf(1, "cut: %v", err)
	}
	return eachLine(ctx, "cut", files, func(l string) {
		var out []string
		for i, part := range strings.Split(l, delim) {
			for _, r := range wanted {
				if r[0] <= i+1 && i+1 <= r[1] {
					out = append(out, part)
					break
				}
			}
		}
		fmt.Fprintln(ctx.Stdout, strings.Join(out, delim))
	})
}

// parseFieldList parses a cut -f list into [first, last] ranges, never
// expanded: `-f 1-999999999999` is a legal list.
func parseFieldList(spec string) ([][2]int, error) {
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a < 1 || b < a {
				return nil, fmt.Errorf("bad range %q", part)
			}
			out = append(out, [2]int{a, b})
			continue
		}
		f, err := strconv.Atoi(part)
		if err != nil || f < 1 {
			return nil, fmt.Errorf("bad field %q", part)
		}
		out = append(out, [2]int{f, f})
	}
	return out, nil
}

// Echo prints its arguments.
type Echo struct{}

// Name implements apps.Program.
func (Echo) Name() string { return "echo" }

// Class implements apps.Program.
func (Echo) Class() cpu.Class { return cpu.ClassCat }

// Run implements apps.Program.
func (Echo) Run(ctx *apps.Context, args []string) error {
	fmt.Fprintln(ctx.Stdout, strings.Join(args, " "))
	return nil
}

// Cksum prints a CRC-32 (IEEE) checksum and byte count per input. CRC is
// linear over GF(2), so checksums of adjacent chunks combine exactly (see
// crc32Combine) — that is what lets split-scan checksum chunks in parallel.
type Cksum struct{}

// Name implements apps.Program.
func (Cksum) Name() string { return "cksum" }

// Class implements apps.Program.
func (Cksum) Class() cpu.Class { return cpu.ClassWC }

// Run implements apps.Program.
func (Cksum) Run(ctx *apps.Context, args []string) error {
	rs, done, err := openAll(ctx, args)
	if err != nil {
		return apps.Exitf(1, "cksum: %v", err)
	}
	defer done()
	for i, r := range rs {
		crc, n, err := crcStream(r)
		if err != nil {
			return apps.Exitf(1, "cksum: %v", err)
		}
		name := ""
		if len(args) > 0 {
			name = " " + args[i]
		}
		fmt.Fprintf(ctx.Stdout, "%08x %d%s\n", crc, n, name)
	}
	return nil
}

// crcStream checksums one input a block at a time. Like the io.Copy out of
// a bufio.Reader it replaces, it reads until a call returns no bytes, even
// past an error that came with data, and reports that last call's error.
func crcStream(r io.Reader) (crc uint32, total int64, err error) {
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	for {
		n, rerr := readBlock(r, blk[:])
		if n == 0 {
			if rerr == io.EOF {
				rerr = nil
			}
			return crc, total, rerr
		}
		crc = crc32.Update(crc, crc32.IEEETable, blk[:n])
		total += int64(n)
	}
}

// SplitPlan implements splitscan.Splitter.
func (Cksum) SplitPlan(args []string) (splitscan.Plan, bool) {
	if len(args) != 1 {
		return splitscan.Plan{}, false
	}
	return splitscan.Plan{File: args[0], Kernel: cksumKernel{name: args[0]}}, true
}

type cksumKernel struct{ name string }

type cksumPartial struct {
	crc uint32
	n   int64
}

// RunChunk implements splitscan.Kernel.
func (cksumKernel) RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error) {
	crc, n, err := crcStream(r)
	if err != nil {
		return nil, apps.Exitf(1, "cksum: %v", err)
	}
	return cksumPartial{crc: crc, n: n}, nil
}

// Merge implements splitscan.Kernel: fold the chunk CRCs left to right with
// crc32Combine and sum the byte counts.
func (k cksumKernel) Merge(ctx *apps.Context, parts []any) error {
	var crc uint32
	var total int64
	for _, p := range parts {
		cp := p.(cksumPartial)
		crc = crc32Combine(crc, cp.crc, cp.n)
		total += cp.n
	}
	fmt.Fprintf(ctx.Stdout, "%08x %d %s\n", crc, total, k.name)
	return nil
}
