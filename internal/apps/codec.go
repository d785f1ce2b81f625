package apps

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"

	"compstor/internal/cpu"
	"compstor/internal/minfs"
)

// Codec is one direction of a whole-buffer compressor and the program that
// runs it: gzip, gunzip, bzip2 and bunzip2 differ only in these values.
type Codec struct {
	// ProgName is the command name, the prefix of its error messages.
	ProgName string
	// CostClass is the program's class in the platform calibration table.
	CostClass cpu.Class
	// Suffix is the compressed file's extension (".gz").
	Suffix string
	// Expand marks the decompressing direction: output names lose Suffix
	// instead of gaining it, and the compute charge is topped up (below).
	Expand bool
	// Transform maps a file's whole content to its (de)compressed form. It
	// is a pure function of data and keeps no reference to data, or to the
	// result, after it returns: once a file's output is written, Run hands
	// both to minfs's pool unless the memo holds them, so the result shares
	// no memory with data. The codecs allocate it through CodecMemo.Alloc.
	// Nothing writes a result the memo holds; it hands the same one to later
	// runs.
	Transform func(data []byte) ([]byte, error)

	memo *CodecMemo // set by Bind; nil computes every time
}

// MaxOutput is the DRAM the ISPS reserves for a task whose spec does not
// say. The paper's applications stream their input through block-sized
// buffers, so 64 MiB covers any of them; the 8 GB ISPS then admits 128 such
// tasks, far more than its four cores can run. No task builds a value past
// it: gunzip and bunzip2 stop with ErrOutputLimit before their output
// passes it, and awk before any string it builds does.
const MaxOutput = 64 << 20

// ErrOutputLimit is a decoder's error past MaxOutput.
var ErrOutputLimit = fmt.Errorf("output larger than %d bytes", MaxOutput)

// NewBytes allocates n bytes: a kernel's alloc when the caller keeps the
// result.
func NewBytes(n int) []byte { return make([]byte, n) }

// Spares is a codec's scratch list: a mutex-guarded LIFO of values, built by
// New when it is empty. Unlike a sync.Pool it keeps its values through a
// collection; a kernel never yields while it holds one, so the list holds
// about one value per goroutine that ran the kernel.
type Spares[T any] struct {
	New func() *T
	mu  sync.Mutex
	l   []*T
}

// Get takes the last value put, or a new one.
func (s *Spares[T]) Get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.l); n > 0 {
		v := s.l[n-1]
		s.l = s.l[:n-1]
		return v
	}
	return s.New()
}

// Put hands v back for the next Get.
func (s *Spares[T]) Put(v *T) {
	s.mu.Lock()
	s.l = append(s.l, v)
	s.mu.Unlock()
}

// Name implements Program.
func (c Codec) Name() string { return c.ProgName }

// Class implements Program.
func (c Codec) Class() cpu.Class { return c.CostClass }

// Run implements Program with the command line the four codecs share: each
// named file is transformed into its sibling (name <-> name+Suffix), or,
// with no file arguments, stdin is filtered to stdout. Inputs are kept (the
// simulation datasets are reused across runs). A file is read into a pooled
// buffer and transformed into another; both go back to the pool once the
// output is written, unless the memo holds them.
func (c Codec) Run(ctx *Context, args []string) error {
	// transform returns data's output and whether the memo holds it, kept
	// with data as its key or recalled. A recalled output's input goes back
	// to the pool at once.
	transform := func(data []byte) (out []byte, held bool, err error) {
		if kept, _ := c.memo.Recall(c.ProgName, data); kept != nil {
			out, held = kept.([]byte), true
			defer minfs.Recycle(data)
		} else if out, err = c.Transform(data); err == nil {
			held = c.memo.Keep(c.ProgName, data, out, cap(data)+cap(out))
		}
		if err == nil && c.Expand {
			// Decompression cost — like the paper's J/GB normalisation — is
			// calibrated per plain byte: top up from the auto-charged
			// compressed input to the plain output size.
			ctx.chargeBytes(len(out) - len(data))
		}
		return out, held, err
	}
	if len(args) == 0 {
		data, err := io.ReadAll(ctx.In())
		if err != nil {
			return err
		}
		out, _, err := transform(data)
		if err != nil {
			return err
		}
		_, err = ctx.Stdout.Write(out)
		return err
	}
	for _, name := range args {
		dst := name + c.Suffix
		if c.Expand {
			// Without the suffix the output's name would be the input's:
			// refuse, as gunzip does, before anything is read or charged.
			if dst = strings.TrimSuffix(name, c.Suffix); dst == name {
				return Exitf(1, "%s: %s: unknown suffix -- ignored", c.ProgName, name)
			}
		}
		data, err := readFileCharged(ctx, name)
		if err != nil {
			return Exitf(1, "%s: %v", c.ProgName, err)
		}
		out, held, err := transform(data)
		if err != nil {
			return Exitf(1, "%s: %s: %v", c.ProgName, name, err)
		}
		err = writeFile(ctx, dst, out)
		if !held {
			minfs.Recycle(data)
			minfs.Recycle(out)
		}
		if err != nil {
			return Exitf(1, "%s: %v", c.ProgName, err)
		}
	}
	return nil
}

// memoBudget bounds one memo's footprint: the bytes its entries retain plus
// memoKeyCost for every key. All four codecs' inputs and outputs over the
// paper-scale corpus (348 books of 24 KiB) come to about 45 MB, so 64 MiB
// holds any working set a committed experiment can repeat, and a memo that
// fills up is seeing content that does not.
const memoBudget = 64 << 20

// memoKeyCost is what a key alone is booked at: its map slot (key, entry
// pointer, bucket overhead).
const memoKeyCost = 48

// CodecMemo remembers what the programs bound to it have computed, so that
// one system computes each distinct result once however many devices, runs
// and replicas ask for it: a codec's output per input content, and gawk's
// tape per command line (awkx). Virtual time cannot see it: a codec's charged
// reads, top-up charge and charged writes happen around every transform, hit
// or not, and gawk replays its tape over its live reads. An entry is returned
// only after the key it was stored under compared equal byte for byte — a
// hash collision is a recompute, never a wrong byte.
//
// Results are admitted on second sight: the first success under a key leaves
// only the key, the second keeps its value (a codec's input and output slices
// the caller already holds: a corpus compressed once per system retains
// nothing, and nothing is copied), later ones hit. Failures are not stored.
// When the footprint would pass memoBudget everything is dropped and filling
// starts again; content that repeats is back after two sights.
type CodecMemo struct {
	seed maphash.Seed

	mu   sync.Mutex
	m    map[memoKey]*memoEntry // nil entry: key seen once
	size int                    // booked footprint, at most memoBudget
}

type memoKey struct {
	prog string
	sum  uint64 // maphash of the key bytes
}

// memoEntry is immutable once stored, so hits read it outside the lock.
type memoEntry struct {
	key []byte
	v   any
}

// NewCodecMemo returns an empty memo. The random hash seed decides which
// keys collide, never a result.
func NewCodecMemo() *CodecMemo {
	return &CodecMemo{seed: maphash.MakeSeed(), m: make(map[memoKey]*memoEntry)}
}

// Bind returns c computing through m. A nil m binds nothing.
func (m *CodecMemo) Bind(c Codec) Codec {
	c.memo = m
	return c
}

// Recall returns what prog kept under key, and whether prog succeeded on key
// before. A nil m has seen nothing.
func (m *CodecMemo) Recall(prog string, key []byte) (kept any, seen bool) {
	if m == nil {
		return nil, false
	}
	k := memoKey{prog, maphash.Bytes(m.seed, key)}
	m.mu.Lock()
	e, seen := m.m[k]
	m.mu.Unlock()
	if e != nil && bytes.Equal(e.key, key) {
		return e.v, true
	}
	return nil, seen
}

// Keep books a success of prog on key: a first sight leaves the key, a
// second keeps v (if any), booked at size bytes, and reports that the key
// slice itself was kept. The caller writes a kept key or v no more. A nil m
// keeps nothing.
func (m *CodecMemo) Keep(prog string, key []byte, v any, size int) bool {
	if m == nil {
		return false
	}
	k := memoKey{prog, maphash.Bytes(m.seed, key)}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, seen := m.m[k]
	cost := memoKeyCost
	if e != nil {
		// The key holds other content (a collision), or this content since
		// the look-up.
		return false
	} else if seen && v != nil {
		e, cost = &memoEntry{key, v}, size
	}
	if m.size+cost > memoBudget {
		// Full, or a value larger than the budget: drop everything and
		// count this as a first sight.
		clear(m.m)
		m.size, e, cost = 0, nil, memoKeyCost
	}
	m.m[k] = e
	m.size += cost
	return e != nil
}

// Alloc returns the allocator for prog's output on key: minfs's pool
// (minfs.GetBuf), whose buffers Run hands back, unless this is the second
// sight, whose output Keep keeps at its capacity: that one is allocated at
// its size, so that the memo fills no sooner than for an unpooled output.
func (m *CodecMemo) Alloc(prog string, key []byte) func(n int) []byte {
	if _, seen := m.Recall(prog, key); seen {
		return NewBytes
	}
	return minfs.GetBuf
}

// readFileCharged reads a whole file through the charging path, in one
// charged Read at its size (minfs.File.ReadAll).
func readFileCharged(ctx *Context, name string) ([]byte, error) {
	r, err := ctx.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f := r.(*chargingFile)
	return f.f.ReadAll(f.Read)
}

// writeFile replaces name with data, unless the task was interrupted while
// computing it. A failure once the file exists (a write or close error, a
// cancel, a full device) deletes it, as gzip(1) does: no truncated output.
func writeFile(ctx *Context, name string, data []byte) error {
	if err := ctx.Interrupted(); err != nil {
		return err
	}
	w, err := ctx.Create(name)
	if err != nil {
		return err
	}
	if _, err = w.Write(data); err == nil {
		err = w.Close()
	}
	if err != nil {
		w.(*chargingWriter).f.Discard(ctx.Proc)
	}
	return err
}
