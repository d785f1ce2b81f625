package gzipx

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"compstor/internal/apps"
)

// gzip framing (RFC 1952).

const (
	gzipID1    = 0x1F
	gzipID2    = 0x8B
	gzipMethod = 8 // DEFLATE
)

// Compress produces a complete gzip member containing src.
func Compress(src []byte) ([]byte, error) { return compress(src, apps.NewBytes) }

// compress is Compress into a buffer of alloc's.
func compress(src []byte, alloc func(n int) []byte) ([]byte, error) {
	c := compressors.Get()
	defer compressors.Put(c)
	body := c.deflate(src)
	out := alloc(10 + len(body) + 8)
	// Header: magic, method, flags, mtime(4), XFL, OS (255 = unknown).
	copy(out, []byte{gzipID1, gzipID2, gzipMethod, 0, 0, 0, 0, 0, 0, 255})
	tail := out[10+copy(out[10:], body):]
	binary.LittleEndian.PutUint32(tail[0:], crc32.ChecksumIEEE(src))
	binary.LittleEndian.PutUint32(tail[4:], uint32(len(src)))
	return out, nil
}

// header flag bits. Bit 0 (FTEXT) only hints that the content is text and
// changes nothing about parsing, so it has no name here.
const (
	flagFHCRC    = 1 << 1
	flagFEXTRA   = 1 << 2
	flagFNAME    = 1 << 3
	flagFCOMMENT = 1 << 4
)

// Decompress parses one or more concatenated gzip members (as real gunzip
// does) and returns the original data, verifying each member's CRC32 and
// length.
func Decompress(src []byte) ([]byte, error) { return decompress(src, apps.NewBytes) }

// decompress is Decompress into a buffer of alloc's, sized by the last
// member's declared length, capped at DEFLATE's 1032:1 and apps.MaxOutput:
// one member (what gzip writes) expands into it without growing.
func decompress(src []byte, alloc func(n int) []byte) ([]byte, error) {
	var out []byte
	if n := len(src); n >= 4 {
		out = alloc(min(int(binary.LittleEndian.Uint32(src[n-4:])), 1032*n, apps.MaxOutput))[:0]
	}
	for at := 0; at == 0 || at < len(src); {
		h, err := headerLen(src[at:])
		if err != nil {
			return nil, err
		}
		start, used := len(out), 0
		if out, used, err = inflate(src[at+h:], out); err != nil {
			return nil, err
		}
		if at += h + used; len(src)-at < 8 {
			return nil, errCorrupt("missing gzip trailer")
		}
		tail := src[at : at+8]
		at += 8
		if crc32.ChecksumIEEE(out[start:]) != binary.LittleEndian.Uint32(tail[0:]) {
			return nil, errCorrupt("gzip CRC mismatch")
		}
		if uint32(len(out)-start) != binary.LittleEndian.Uint32(tail[4:]) {
			return nil, errCorrupt("gzip length mismatch")
		}
	}
	return out, nil
}

// headerLen returns the length of the gzip member header src starts with.
func headerLen(src []byte) (int, error) {
	if len(src) < 10 {
		return 0, errCorrupt("short gzip header")
	}
	if src[0] != gzipID1 || src[1] != gzipID2 {
		return 0, errCorrupt("bad gzip magic")
	}
	if src[2] != gzipMethod {
		return 0, errCorrupt("unknown gzip method")
	}
	flg, n := src[3], 10
	if flg&flagFEXTRA != 0 {
		if len(src) < n+2 {
			return 0, errCorrupt("short FEXTRA")
		}
		if n += 2 + int(binary.LittleEndian.Uint16(src[n:])); n > len(src) {
			return 0, errCorrupt("short FEXTRA body")
		}
	}
	for _, f := range []byte{flagFNAME, flagFCOMMENT} {
		if flg&f != 0 {
			end := bytes.IndexByte(src[n:], 0)
			if end < 0 {
				return 0, errCorrupt("unterminated header string")
			}
			n += end + 1
		}
	}
	if flg&flagFHCRC != 0 {
		if n += 2; n > len(src) {
			return 0, errCorrupt("short FHCRC")
		}
	}
	return n, nil
}
