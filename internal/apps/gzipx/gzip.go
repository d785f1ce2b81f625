package gzipx

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"

	"compstor/internal/apps"
)

// gzip framing (RFC 1952).

const (
	gzipID1    = 0x1F
	gzipID2    = 0x8B
	gzipMethod = 8 // DEFLATE
)

// Compress produces a complete gzip member containing src.
func Compress(src []byte) ([]byte, error) {
	var out bytes.Buffer
	// Header: magic, method, flags, mtime(4), XFL, OS (255 = unknown).
	out.Write([]byte{gzipID1, gzipID2, gzipMethod, 0, 0, 0, 0, 0, 0, 255})
	if err := Deflate(&out, src); err != nil {
		return nil, err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], crc32.ChecksumIEEE(src))
	binary.LittleEndian.PutUint32(tail[4:], uint32(len(src)))
	out.Write(tail[:])
	return out.Bytes(), nil
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
// length. The output is sized by the last member's declared length, capped
// at DEFLATE's 1032:1 and apps.MaxOutput: one member (what gzip writes)
// expands into one allocation.
func Decompress(src []byte) ([]byte, error) {
	r := bytes.NewReader(src)
	var out []byte
	if n := len(src); n >= 4 {
		out = make([]byte, 0, min(int(binary.LittleEndian.Uint32(src[n-4:])), 1032*n, apps.MaxOutput))
	}
	for member := 0; member == 0 || r.Len() > 0; member++ {
		if err := skipHeader(r); err != nil {
			return nil, err
		}
		start := len(out)
		var err error
		if out, err = inflate(r, out); err != nil {
			return nil, err
		}
		var tail [8]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return nil, errCorrupt("missing gzip trailer")
		}
		if crc32.ChecksumIEEE(out[start:]) != binary.LittleEndian.Uint32(tail[0:]) {
			return nil, errCorrupt("gzip CRC mismatch")
		}
		if uint32(len(out)-start) != binary.LittleEndian.Uint32(tail[4:]) {
			return nil, errCorrupt("gzip length mismatch")
		}
	}
	return out, nil
}

func skipHeader(r *bytes.Reader) error {
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return errCorrupt("short gzip header")
	}
	if hdr[0] != gzipID1 || hdr[1] != gzipID2 {
		return errCorrupt("bad gzip magic")
	}
	if hdr[2] != gzipMethod {
		return errCorrupt("unknown gzip method")
	}
	flg := hdr[3]
	if flg&flagFEXTRA != 0 {
		var ln [2]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return errCorrupt("short FEXTRA")
		}
		n := int(binary.LittleEndian.Uint16(ln[:]))
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return errCorrupt("short FEXTRA body")
		}
	}
	for _, f := range []byte{flagFNAME, flagFCOMMENT} {
		if flg&f != 0 {
			for {
				c, err := r.ReadByte()
				if err != nil {
					return errCorrupt("unterminated header string")
				}
				if c == 0 {
					break
				}
			}
		}
	}
	if flg&flagFHCRC != 0 {
		if _, err := io.CopyN(io.Discard, r, 2); err != nil {
			return errCorrupt("short FHCRC")
		}
	}
	return nil
}
