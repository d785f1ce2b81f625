package coreutils

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Tr translates or deletes characters from stdin to stdout.
//
// Usage: tr SET1 SET2 | tr -d SET1
// Sets support a-z ranges and \n/\t escapes; SET2 is padded with its last
// character, as POSIX specifies.
type Tr struct{}

// Name implements apps.Program.
func (Tr) Name() string { return "tr" }

// Class implements apps.Program.
func (Tr) Class() cpu.Class { return cpu.ClassWC }

// Run implements apps.Program.
func (Tr) Run(ctx *apps.Context, args []string) error {
	del := false
	if len(args) > 0 && args[0] == "-d" {
		del = true
		args = args[1:]
	}
	if del && len(args) != 1 || !del && len(args) != 2 {
		return apps.Exitf(1, "tr: usage: tr SET1 SET2 | tr -d SET1")
	}
	set1, err := expandSet(args[0])
	if err != nil {
		return apps.Exitf(1, "tr: %v", err)
	}
	var table [256]int16
	for i := range table {
		table[i] = int16(i)
	}
	if del {
		for _, c := range set1 {
			table[c] = -1
		}
	} else {
		set2, err := expandSet(args[1])
		if err != nil {
			return apps.Exitf(1, "tr: %v", err)
		}
		if len(set2) == 0 {
			return apps.Exitf(1, "tr: empty SET2")
		}
		for i, c := range set1 {
			table[c] = int16(set2[min(i, len(set2)-1)])
		}
	}
	w := bufio.NewWriter(ctx.Stdout)
	err = translate(w, ctx.In(), &table)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return apps.Exitf(1, "tr: %v", err)
	}
	return nil
}

// translate copies in to w through table (-1 drops the byte), a block at a
// time and in place: the translated bytes never overtake the one being read.
func translate(w *bufio.Writer, in io.Reader, table *[256]int16) error {
	blk := apps.GetBlock()
	defer apps.PutBlock(blk)
	for {
		n, rerr := readBlock(in, blk[:])
		out := blk[:0]
		for _, c := range blk[:n] {
			if v := table[c]; v >= 0 {
				out = append(out, byte(v))
			}
		}
		// In pieces no larger than w's buffer, so that w passes on one full
		// buffer at a time, as it did when fed byte by byte.
		for len(out) > 0 {
			k := min(len(out), w.Size())
			if _, err := w.Write(out[:k]); err != nil {
				return err
			}
			out = out[k:]
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// expandSet expands ranges (a-z) and escapes (\n, \t, \\) in a tr set.
func expandSet(s string) ([]byte, error) {
	var out []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case '\\':
				out = append(out, '\\')
			default:
				out = append(out, s[i])
			}
			continue
		}
		// Range?
		if i+2 < len(s) && s[i+1] == '-' {
			lo, hi := c, s[i+2]
			if hi < lo {
				return nil, fmt.Errorf("reversed range %c-%c", lo, hi)
			}
			for b := lo; ; b++ {
				out = append(out, b)
				if b == hi {
					break
				}
			}
			i += 2
			continue
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty set %q", strings.TrimSpace(s))
	}
	return out, nil
}
