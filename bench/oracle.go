package main

import (
	"bytes"
	"compress/bzip2"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
)

// The oracle recomputes what each command must print from the plain input
// bytes, with the standard library only — none of the repository's own
// kernels — so a kernel change that alters an output is caught here rather
// than by comparing the kernel with itself.

// wantGrepCount is `grep -c pat file` for a literal pattern.
func wantGrepCount(data []byte, pat string) string {
	n := 0
	needle := []byte(pat)
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if bytes.Contains(line, needle) {
			n++
		}
	}
	return fmt.Sprintf("%d\n", n)
}

// wantWC is `wc file`.
func wantWC(data []byte, name string) string {
	return fmt.Sprintf("%7d %7d %7d %s\n",
		bytes.Count(data, []byte{'\n'}), len(bytes.Fields(data)), len(data), name)
}

// wantCksum is `cksum file`.
func wantCksum(data []byte, name string) string {
	return fmt.Sprintf("%08x %d %s\n", crc32.ChecksumIEEE(data), len(data), name)
}

// wantDistinctWords is the word-frequency gawk program's output: the number
// of distinct whitespace-separated fields.
func wantDistinctWords(data []byte) string {
	seen := map[string]struct{}{}
	for _, f := range bytes.Fields(data) {
		seen[string(f)] = struct{}{}
	}
	return fmt.Sprintf("%d\n", len(seen))
}

// gunzipStd and bunzip2Std expand a compressed file with the standard
// library's decoders.
func gunzipStd(z []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func bunzip2Std(z []byte) ([]byte, error) {
	return io.ReadAll(bzip2.NewReader(bytes.NewReader(z)))
}
