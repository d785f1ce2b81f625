package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto): just enough to get, for each sample, its CPU nanoseconds
// and its stack of function names, innermost first. The standard library
// has no public parser, and the benchmark may not add a dependency.

// cpuSample is one stack of a CPU profile.
type cpuSample struct {
	ns    int64
	stack []string // function names, innermost frame first, inlined frames expanded
}

// protoField is one decoded field: a varint or a length-delimited payload.
type protoField struct {
	num   int
	value uint64
	bytes []byte
}

var errProfile = errors.New("bench: malformed CPU profile")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// protoFields splits a message into its fields. Fixed-width wire types do
// not occur in the fields read here; meeting one is an error.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return nil, errProfile
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return nil, errProfile
			}
			f.value, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProfile
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errProfile
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errProfile
			}
			b = b[4:]
		default:
			return nil, errProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// packed decodes a repeated varint field, packed or not.
func packed(f protoField, into []uint64) []uint64 {
	if f.bytes == nil {
		return append(into, f.value)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			break
		}
		into, b = append(into, v), b[n:]
	}
	return into
}

// parseCPUProfile decodes a gzipped profile.proto into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		case 5: // function: id=1, name=2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = x.value
				}
			}
			funcName[id] = name
		case 4: // location: id=1, line=4 {function_id=1}, innermost first
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 4:
					ls, err := protoFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // sample: location_id=1, value=2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, x := range fs {
				switch x.num {
				case 1:
					s.locs = packed(x, s.locs)
				case 2:
					s.values = packed(x, s.values)
				}
			}
			samples = append(samples, s)
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		// CPU profiles carry two values per sample: count, then nanoseconds.
		if len(s.values) < 2 {
			return nil, errProfile
		}
		cs := cpuSample{ns: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
