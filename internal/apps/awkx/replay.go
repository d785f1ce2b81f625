package awkx

import (
	"bytes"
	"io"

	"compstor/internal/apps"
)

// A tape is what a run scanned and printed, in order: each record, each
// input's end and each stdout Write.
type tape []tapeOp

type tapeOp struct {
	kind byte // opRecord, opEOF or opWrite
	b    []byte
}

const (
	opRecord byte = iota
	opEOF
	opWrite
)

// session is one run of a program over its inputs. It starts as the replay
// of old when there is one: the scan and its reads run as the interpreter's
// would, each record is compared with the tape's instead of running the
// rules, and the tape's writes are issued where the rules issued them. At
// the first record or end of input the tape does not hold, the interpreter
// is built, brought to the same point, and runs on over the same scanner.
type session struct {
	in     *interp                 // nil while replaying
	load   func() (*interp, error) // builds in
	stdout io.Writer
	old    tape
	pos    int  // ops of old replayed so far
	keep   bool // record this run in rec
	rec    tape
	size   int // of rec, in a memo
	inputs []namedReader
	eofs   int // inputs read to their end
}

// Write is the program's stdout while the run is recorded.
func (s *session) Write(b []byte) (int, error) {
	s.record(opWrite, b)
	return s.stdout.Write(b)
}

func (s *session) record(kind byte, b []byte) {
	if s.keep {
		s.rec = append(s.rec, tapeOp{kind, bytes.Clone(b)})
		s.size += 32 + len(b)
	}
}

// run runs BEGIN, the main loop to the end of input or the first exit, and
// END, whose writes a replay that held to the end has issued already.
func (s *session) run(inputs []namedReader) (code int, err error) {
	s.inputs = inputs
	defer func() {
		if s.in != nil {
			code, err = s.in.end(code, err)
		}
	}()
	if code, more, err := s.begin(); !more {
		return code, err
	}
	var blk *apps.Block // shared by the inputs; a split-scan chunk has its own
	if !inputs[0].chunk {
		blk = apps.GetBlock()
		defer apps.PutBlock(blk)
	}
	for _, input := range inputs {
		sc := apps.NewLineScanner(input.r, blk)
		for sc.Scan() {
			if code, more, err := s.step(opRecord, sc.Bytes()); !more {
				return code, err
			}
		}
		if err := sc.Err(); err != nil {
			return 1, runtimeErr("reading %s: %v", input.name, err)
		}
		if code, more, err := s.step(opEOF, nil); !more {
			return code, err
		}
	}
	return 0, nil
}

// begin runs BEGIN. The input is read only when there are main rules or END
// rules, and the first one is FILENAME from here.
func (s *session) begin() (int, bool, error) {
	if s.in == nil {
		return s.follow()
	}
	code, more, err := s.in.rules(s.in.code.begins, false)
	if more {
		s.in.globals[slotFILENAME] = str(s.inputs[0].name)
	}
	return code, more && len(s.in.code.rules)+len(s.in.code.ends) > 0, err
}

// step passes a record, or an input's end, to the tape while it holds and
// to the interpreter after. The tape ends with the last input's end, so
// there is an op for every step a replay takes.
func (s *session) step(kind byte, b []byte) (int, bool, error) {
	if s.in == nil {
		if op := s.old[s.pos]; op.kind == kind && bytes.Equal(op.b, b) {
			s.pos++
			return s.follow()
		}
		s.catchUp()
	}
	s.record(kind, b)
	if kind == opRecord {
		s.in.nr++
		s.in.setRecord(string(b))
		return s.in.rules(s.in.code.rules, true)
	}
	if s.eofs++; s.eofs < len(s.inputs) {
		s.in.globals[slotFILENAME] = str(s.inputs[s.eofs].name)
	}
	return 0, true, nil
}

// follow issues the writes the tape holds next.
func (s *session) follow() (int, bool, error) {
	for ; s.pos < len(s.old) && s.old[s.pos].kind == opWrite; s.pos++ {
		if _, err := s.stdout.Write(s.old[s.pos].b); err != nil {
			return 1, false, err
		}
	}
	return 0, true, nil
}

// catchUp builds the interpreter and steps it through what the replay
// matched with its output discarded, because that went out already. The tape
// is of a run of this argv that went on past here and looked at nothing but
// its records, so nothing here fails or stops.
func (s *session) catchUp() {
	s.in, _ = s.load()
	out := s.in.out
	s.in.out = io.Discard
	s.begin()
	for _, op := range s.old[:s.pos] {
		if op.kind != opWrite {
			s.step(op.kind, op.b)
		}
	}
	s.in.out = out
}
