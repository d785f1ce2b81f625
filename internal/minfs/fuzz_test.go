package minfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"compstor/internal/sim"
)

// fuzzDevice is a memDevice that takes virtual time for every access, so
// flushers are still in flight when the next operation starts, and that has
// the PageReaderInto capability. latch picks when a write samples its
// buffer: as the command arrives (a DMA up front) or as it completes (the
// flash model's program), since a buffer recycled too early shows up
// differently under each.
type fuzzDevice struct {
	*memDevice
	latch bool
}

func (d fuzzDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	p.Wait(time.Duration(count) * 20 * time.Microsecond)
	return d.memDevice.ReadPages(p, lpn, count)
}

func (d fuzzDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	if d.latch {
		data = append([]byte(nil), data...)
	}
	p.Wait(time.Duration(len(data)/d.pageSize) * 150 * time.Microsecond)
	return d.memDevice.WritePages(p, lpn, data)
}

func (d fuzzDevice) ReadPagesInto(p *sim.Proc, lpn int64, dst []byte) error {
	count := int64(len(dst) / d.pageSize)
	if lpn < 0 || lpn+count > d.pages {
		return fmt.Errorf("fuzzdev: range %d+%d out of range", lpn, count)
	}
	p.Wait(time.Duration(count) * 20 * time.Microsecond)
	for i := int64(0); i < count; i++ {
		pg := dst[int(i)*d.pageSize : int(i+1)*d.pageSize]
		clear(pg[copy(pg, d.store[lpn+i]):])
	}
	return nil
}

// threeMethodDevice hides every optional capability of the device it wraps,
// as a BlockDevice written against the required interface alone would.
type threeMethodDevice struct{ BlockDevice }

// fuzzBytes is the deterministic content of the n-th write.
func fuzzBytes(n, size int) []byte {
	b := make([]byte, size)
	x := uint32(n)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// Operation codes of a fuzz program: three bytes each, (code, a, b).
const (
	fzWriteFile = iota // replace file a with b-derived ragged size
	fzCreate           // open a writer on file a, replacing it (if none is open)
	fzAppend           // append a ragged chunk to file a's open writer
	fzClose            // close file a's writer
	fzReadAt           // read b-derived length at an a-derived offset, check
	fzReadFile         // read a whole file, check
	fzDelete           // delete file a
	fzFlush            // fsync the view
	fzWait             // let b×25 µs of virtual time pass: flushers advance
	fzOps
)

// FuzzMinfsOps runs an operation sequence against a map[string][]byte model:
// create / ragged appends / reads at offsets / delete / WriteFile replace /
// Flush, with write-back on or off, over a device with the PageReaderInto
// capability or without it. A replace or delete may land on a file whose
// writer is still open; that writer keeps appending, nameless, until it is
// closed. Every read is checked as it happens — including
// reads of files whose pages are still dirty or half flushed — every buffer
// handed in or out is scribbled on afterwards, and at the end no page may be
// allocated to no file or to two, and a second, cache-less view must find
// exactly the model on the device.
func FuzzMinfsOps(f *testing.F) {
	op := func(code, a, b byte) []byte { return []byte{code, a, b} }
	cat := func(cfg byte, ops ...[]byte) []byte { return append([]byte{cfg}, bytes.Join(ops, nil)...) }
	for cfg := byte(0); cfg < 8; cfg++ {
		// A read overlapping a dirty page mid-run: write five-odd pages, let
		// the flushers land some of them, read across the lot.
		f.Add(cat(cfg, op(fzWriteFile, 0, 77), op(fzWait, 0, 9), op(fzReadAt, 3, 200), op(fzReadFile, 0, 0), op(fzWait, 0, 40), op(fzReadAt, 90, 255)))
		// A delete with flushers in flight, then the space reused at once.
		f.Add(cat(cfg, op(fzWriteFile, 1, 120), op(fzWait, 0, 3), op(fzDelete, 1, 0), op(fzWriteFile, 2, 121), op(fzReadFile, 2, 0), op(fzFlush, 0, 0), op(fzReadFile, 2, 0)))
		// Replace while dirty; ragged appends through an open writer.
		f.Add(cat(cfg, op(fzWriteFile, 0, 30), op(fzWriteFile, 0, 31), op(fzCreate, 3, 0), op(fzAppend, 3, 1), op(fzAppend, 3, 200), op(fzAppend, 3, 13), op(fzClose, 3, 0), op(fzReadAt, 200, 99), op(fzReadFile, 3, 0)))
		// A writer replaced, another deleted, both writing on without a name
		// while new files take their pages' neighbours.
		f.Add(cat(cfg, op(fzCreate, 2, 0), op(fzAppend, 2, 90), op(fzWriteFile, 2, 50), op(fzAppend, 2, 200), op(fzCreate, 1, 0), op(fzAppend, 1, 33), op(fzDelete, 1, 0), op(fzWriteFile, 1, 70), op(fzAppend, 0, 120), op(fzClose, 1, 0), op(fzReadFile, 2, 0), op(fzReadFile, 1, 0), op(fzWait, 0, 30)))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 1+3*200 {
			return
		}
		// Barely more data pages than four six-page files and their writers'
		// surplus need, so the allocator wraps and logical pages are reused
		// while older writes to them are still in flight.
		const ps, pages = 256, metaPages + 64
		eng := sim.NewEngine()
		defer eng.Shutdown() // the flushers stay parked on their queue otherwise
		mem := newMemDevice(ps, pages)
		var dev BlockDevice = fuzzDevice{mem, prog[0]&4 != 0}
		if prog[0]&1 != 0 {
			dev = threeMethodDevice{dev}
		}
		fs := NewFS(ps, pages)
		v := NewView(fs, dev)
		if prog[0]&2 != 0 {
			v.EnableWriteBack(eng, 24, 3)
		}
		model := map[string][]byte{}
		writers := map[string]*File{}
		pending := map[string][]byte{} // what an open writer has been given so far
		var orphans []*File            // open writers whose name was replaced or deleted
		orphan := func(name string) {
			if w, open := writers[name]; open {
				orphans = append(orphans, w)
				delete(writers, name)
			}
		}
		writes := 0

		inProc(t, eng, func(p *sim.Proc) error {
			check := func(what, name string, got, want []byte) error {
				if !bytes.Equal(got, want) {
					return fmt.Errorf("%s %s: %d bytes differ from the model's %d", what, name, len(got), len(want))
				}
				scribble(got)
				return nil
			}
			for i := 1; i+2 < len(prog); i += 3 {
				a, b := int(prog[i+1]), int(prog[i+2])
				name := fmt.Sprintf("f%d", a%4)
				_, open := writers[name]
				want, exists := model[name]
				switch prog[i] % fzOps {
				case fzWriteFile:
					writes++
					data := fuzzBytes(writes, b*23%(6*ps))
					if err := v.WriteFile(p, name, data); errors.Is(err, ErrNoSpace) {
						return nil // an open writer holds the free space: nothing more to learn
					} else if err != nil {
						return err
					}
					orphan(name)
					model[name] = append([]byte(nil), data...)
					scribble(data)
				case fzCreate:
					if open {
						continue
					}
					w, err := v.CreateTrunc(p, name)
					if err != nil {
						return err
					}
					writers[name], pending[name] = w, nil
					delete(model, name)
				case fzAppend:
					w := writers[name]
					if !open && len(orphans) > 0 {
						w = orphans[a%len(orphans)] // a nameless writer keeps writing
					} else if !open {
						continue
					}
					writes++
					data := fuzzBytes(writes, 1+b*7%(3*ps))
					if n, err := w.Write(p, data); errors.Is(err, ErrNoSpace) {
						return nil
					} else if err != nil || n != len(data) {
						return fmt.Errorf("append %s: %d of %d, %v", name, n, len(data), err)
					}
					if open {
						pending[name] = append(pending[name], data...)
					}
					scribble(data)
				case fzClose:
					if !open && len(orphans) > 0 {
						k := a % len(orphans)
						if err := orphans[k].Close(p); err != nil {
							return err
						}
						orphans = append(orphans[:k], orphans[k+1:]...)
						continue
					} else if !open {
						continue
					}
					if err := writers[name].Close(p); errors.Is(err, ErrNoSpace) {
						return nil
					} else if err != nil {
						return err
					}
					model[name] = pending[name]
					delete(writers, name)
				case fzReadAt:
					if open || !exists {
						continue
					}
					r, err := v.Open(p, name)
					if err != nil {
						return err
					}
					off := a * 11 % (len(want) + 3) // now and then past EOF
					if err := r.SeekTo(int64(off)); err != nil {
						return err
					}
					buf := make([]byte, 1+b*5)
					n, err := io.ReadFull(fileReader{r, p}, buf)
					end := min(off+len(buf), len(want))
					if off >= len(want) {
						if n != 0 || err != io.EOF {
							return fmt.Errorf("read %s at %d past EOF %d: %d bytes, %v", name, off, len(want), n, err)
						}
						continue
					}
					if err != nil && err != io.ErrUnexpectedEOF {
						return err
					}
					if err := check("read at", name, buf[:n], want[off:end]); err != nil {
						return fmt.Errorf("offset %d: %w", off, err)
					}
				case fzReadFile:
					if open || !exists {
						continue
					}
					got, err := v.ReadFile(p, name)
					if err != nil {
						return err
					}
					if err := check("ReadFile", name, got, want); err != nil {
						return err
					}
				case fzDelete:
					if !open && !exists {
						continue
					}
					if err := v.Delete(p, name); err != nil {
						return err
					}
					orphan(name)
					delete(model, name)
				case fzFlush:
					if err := v.Flush(p); err != nil {
						return err
					}
				case fzWait:
					p.Wait(time.Duration(b) * 25 * time.Microsecond)
				}
			}
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("f%d", i)
				if w, open := writers[name]; open {
					if err := w.Close(p); errors.Is(err, ErrNoSpace) {
						return nil
					} else if err != nil {
						return err
					}
					model[name] = pending[name]
				}
			}
			for _, w := range orphans {
				if err := w.Close(p); err != nil {
					return err
				}
			}
			if err := audit(fs); err != nil {
				return err
			}
			if err := v.Flush(p); err != nil {
				return err
			}
			raw := NewView(fs, mem)
			for name, want := range model {
				got, err := raw.ReadFile(p, name)
				if err != nil {
					return err
				}
				if err := check("after flush, on the device,", name, got, want); err != nil {
					return err
				}
			}
			if got := listFiles(fs); len(got) != len(model) {
				return fmt.Errorf("filesystem lists %d files, model holds %d", len(got), len(model))
			}
			return nil
		})
	})
}
