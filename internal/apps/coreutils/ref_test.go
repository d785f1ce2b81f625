package coreutils

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"testing"
)

// The three functions below are the byte-at-a-time input loops wc, cksum and
// tr ran before they went block-granular, kept verbatim as oracles: the
// block versions must return the same values and hand their reader the same
// sequence of Read calls.

func countStreamRef(r io.Reader) (l, w, b int64, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	inWord := false
	for {
		c, rerr := br.ReadByte()
		if rerr == io.EOF {
			return l, w, b, nil
		}
		if rerr != nil {
			return l, w, b, rerr
		}
		b++
		if c == '\n' {
			l++
		}
		space := c == ' ' || c == '\t' || c == '\n' || c == '\r'
		if !space && !inWord {
			w++
		}
		inWord = !space
	}
}

func crcStreamRef(r io.Reader) (uint32, int64, error) {
	h := crc32.NewIEEE()
	n, err := io.Copy(h, bufio.NewReaderSize(r, 64*1024))
	return h.Sum32(), n, err
}

func translateRef(out io.Writer, in io.Reader, table *[256]int16) error {
	r := bufio.NewReaderSize(in, 64*1024)
	w := bufio.NewWriter(out)
	defer w.Flush()
	for {
		c, err := r.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if v := table[c]; v >= 0 {
			if err := w.WriteByte(byte(v)); err != nil {
				return err
			}
		}
	}
}

var errFault = errors.New("injected read fault")

// raggedReader cuts data at boundaries drawn from an LCG and takes every
// liberty io.Reader allows: short reads, (0, nil), the last bytes together
// with io.EOF, and now and then a fault, with or without data. calls logs
// the len(b) of every Read, so two consumers can be held to the same
// sequence of requests.
type raggedReader struct {
	data  []byte
	lcg   uint64
	calls []int
}

func (r *raggedReader) Read(b []byte) (int, error) {
	r.calls = append(r.calls, len(b))
	r.lcg = r.lcg*6364136223846793005 + 1442695040888963407
	mood := r.lcg >> 59 // 0..31
	if mood == 0 {
		return 0, nil
	}
	n := min(len(b), len(r.data), 1+int(r.lcg>>20%100000))
	if mood == 1 {
		n /= 2
	}
	copy(b, r.data[:n])
	r.data = r.data[n:]
	switch {
	case mood == 1:
		return n, errFault
	case len(r.data) == 0 && (n == 0 || mood&1 == 0):
		return n, io.EOF
	}
	return n, nil
}

// FuzzWCCount holds the block-granular counter, checksum and translation to
// their byte-at-a-time oracles on arbitrary bytes cut at arbitrary read
// boundaries: same results, same error, same Read calls. The stream is unit
// repeated reps times (to at most 256 KiB), so a few bytes of corpus reach
// across several blocks.
func FuzzWCCount(f *testing.F) {
	f.Add([]byte("one two\r\nthree\r\n"), uint16(1), uint64(1))
	f.Add([]byte("a\vb\fc\x85d\xa0e \t\n\r f"), uint16(1), uint64(2))
	f.Add([]byte(" \n\t\r"), uint16(3), uint64(3))
	f.Add([]byte{}, uint16(0), uint64(4))
	f.Add([]byte("word "), uint16(40000), uint64(5))           // words split across blocks
	f.Add([]byte("xy"), uint16(40000), uint64(6))              // one word over a block edge
	f.Add([]byte("ab\xa0\ncd  ef\r"), uint16(9000), uint64(7)) // ragged against the 8-byte stride

	var upper [256]int16
	for i := range upper {
		upper[i] = int16(i)
	}
	for c := 'a'; c <= 'z'; c++ {
		upper[c] = int16(c - 'a' + 'A')
	}
	upper[' '] = -1

	f.Fuzz(func(t *testing.T, unit []byte, reps uint16, seed uint64) {
		data := bytes.Repeat(unit, min(int(reps), 256<<10/max(len(unit), 1)))
		got, want := &raggedReader{data: data, lcg: seed}, &raggedReader{data: data, lcg: seed}
		l, w, b, err := countStream(got)
		rl, rw, rb, rerr := countStreamRef(want)
		if l != rl || w != rw || b != rb || err != rerr {
			t.Fatalf("wc: %d %d %d %v, byte loop says %d %d %d %v", l, w, b, err, rl, rw, rb, rerr)
		}
		sameCalls(t, "wc", got, want)

		got, want = &raggedReader{data: data, lcg: seed}, &raggedReader{data: data, lcg: seed}
		crc, n, err := crcStream(got)
		rcrc, rn, rerr := crcStreamRef(want)
		if crc != rcrc || n != rn || err != rerr {
			t.Fatalf("cksum: %08x %d %v, io.Copy says %08x %d %v", crc, n, err, rcrc, rn, rerr)
		}
		sameCalls(t, "cksum", got, want)

		got, want = &raggedReader{data: data, lcg: seed}, &raggedReader{data: data, lcg: seed}
		var out, rout bytes.Buffer
		bw := bufio.NewWriter(&out)
		err = translate(bw, got, &upper)
		bw.Flush()
		rerr = translateRef(&rout, want, &upper)
		if !bytes.Equal(out.Bytes(), rout.Bytes()) || err != rerr {
			t.Fatalf("tr: %d bytes %v, byte loop wrote %d bytes %v", out.Len(), err, rout.Len(), rerr)
		}
		sameCalls(t, "tr", got, want)
	})
}

// linesRef splits input the way the tools' line scanner does: at each '\n',
// less one '\r' before it; a last line without '\n' still counts.
func linesRef(in string) []string {
	var lines []string
	for start, i := 0, 0; i < len(in); i++ {
		if in[i] == '\n' || i == len(in)-1 {
			end := i
			if in[i] != '\n' {
				end++
			}
			if end > start && in[end-1] == '\r' {
				end--
			}
			lines = append(lines, in[start:end])
			start = i + 1
		}
	}
	return lines
}

// cutRef is cut -d delim -f over lines, one byte at a time: it records
// where each field starts and emits, in input order, every field some range
// covers, each once, joined by delim.
func cutRef(lines []string, delim byte, ranges [][2]int) string {
	var out []byte
	for _, l := range lines {
		starts := []int{0} // field f begins at starts[f-1]
		for i := 0; i < len(l); i++ {
			if l[i] == delim {
				starts = append(starts, i+1)
			}
		}
		n := 0
		for f := 1; f <= len(starts); f++ {
			if !slices.ContainsFunc(ranges, func(r [2]int) bool { return r[0] <= f && f <= r[1] }) {
				continue
			}
			end := len(l)
			if f < len(starts) {
				end = starts[f] - 1
			}
			if n > 0 {
				out = append(out, delim)
			}
			out = append(out, l[starts[f-1]:end]...)
			n++
		}
		out = append(out, '\n')
	}
	return string(out)
}

// FuzzCutTailEcho holds cut, tail and echo to reference loops on arbitrary
// input: cut -d D -f LO-HI,K (a bad list must exit 1 and print nothing),
// tail -n N, and echo given the input split at D as its arguments.
func FuzzCutTailEcho(f *testing.F) {
	f.Add("a:b:c\nd:e:f\n", byte(':'), uint8(2), uint8(3), uint8(1), uint8(1))
	f.Add("x\ty\r\n\r\n\tz\r", byte('\t'), uint8(1), uint8(9), uint8(3), uint8(0))
	f.Add("1 2\n3\n4 5 6\n7", byte(' '), uint8(3), uint8(2), uint8(1), uint8(3)) // bad range
	f.Add("", byte('\n'), uint8(1), uint8(1), uint8(0), uint8(9))                // bad field
	f.Fuzz(func(t *testing.T, in string, delim, lo, hi, k, n uint8) {
		d := string([]byte{delim})
		lines := linesRef(in)

		want, wantCode := "", 1
		if lo >= 1 && hi >= lo && k >= 1 {
			want, wantCode = cutRef(lines, delim, [][2]int{{int(lo), int(hi)}, {int(k), int(k)}}), 0
		}
		if out, code := runTool(t, Cut{}, in, "-d", d, "-f", fmt.Sprintf("%d-%d,%d", lo, hi, k)); out != want || code != wantCode {
			t.Fatalf("cut -d %q -f %d-%d,%d = %q (exit %d), want %q (exit %d)", d, lo, hi, k, out, code, want, wantCode)
		}

		want = ""
		for _, l := range lines[max(len(lines)-int(n), 0):] {
			want += l + "\n"
		}
		if out, code := runTool(t, Tail{}, in, "-n", fmt.Sprint(n)); out != want || code != 0 {
			t.Fatalf("tail -n %d = %q (exit %d), want %q", n, out, code, want)
		}

		args := strings.Split(in, d)
		want = ""
		for i, a := range args {
			if i > 0 {
				want += " "
			}
			want += a
		}
		if out, code := runTool(t, Echo{}, "", args...); out != want+"\n" || code != 0 {
			t.Fatalf("echo %q = %q (exit %d), want %q", args, out, code, want+"\n")
		}
	})
}

func sameCalls(t *testing.T, tool string, got, want *raggedReader) {
	t.Helper()
	if len(got.calls) != len(want.calls) {
		t.Fatalf("%s made %d Read calls, the byte loop %d", tool, len(got.calls), len(want.calls))
	}
	for i := range got.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("%s: Read call %d asked for %d bytes, the byte loop for %d", tool, i, got.calls[i], want.calls[i])
		}
	}
}
