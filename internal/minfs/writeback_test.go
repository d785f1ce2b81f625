package minfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"compstor/internal/sim"
)

// slowDevice wraps memDevice with a per-page write latency so write-back
// behaviour is observable in virtual time.
type slowDevice struct {
	*memDevice
	writeLatency time.Duration
}

func (d *slowDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	pages := len(data) / d.pageSize
	p.Wait(time.Duration(pages) * d.writeLatency)
	return d.memDevice.WritePages(p, lpn, data)
}

func newWBView(eng *sim.Engine) (*View, *slowDevice) {
	dev := &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 500 * time.Microsecond}
	v := NewView(NewFS(512, 8192), dev)
	v.EnableWriteBack(eng, 256, 8)
	return v, dev
}

func TestWriteBackHidesWriteLatency(t *testing.T) {
	eng := sim.NewEngine()
	v, _ := newWBView(eng)
	data := make([]byte, 64*512) // 64 pages = 32ms of synchronous latency
	var writeDone, flushDone sim.Time
	eng.Go("w", func(p *sim.Proc) {
		if err := v.WriteFile(p, "f", data); err != nil {
			t.Error(err)
			return
		}
		writeDone = p.Now()
		v.Flush(p)
		flushDone = p.Now()
	})
	eng.Run()
	if writeDone > sim.Time(10*time.Millisecond) {
		t.Fatalf("buffered write took %v; latency not hidden", writeDone)
	}
	if flushDone <= writeDone {
		t.Fatalf("flush was free (%v vs %v); writes never landed", flushDone, writeDone)
	}
}

func TestWriteBackReadYourOwnWrites(t *testing.T) {
	eng := sim.NewEngine()
	v, _ := newWBView(eng)
	content := bytes.Repeat([]byte("own-writes "), 200)
	eng.Go("w", func(p *sim.Proc) {
		if err := v.WriteFile(p, "f", content); err != nil {
			t.Error(err)
			return
		}
		// No flush: the read must still see the dirty pages.
		got, err := v.ReadFile(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("dirty-page overlay failed")
		}
	})
	eng.Run()
}

func TestWriteBackFlushMakesDataVisibleToOtherView(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 200 * time.Microsecond}
	fs := NewFS(512, 8192)
	writer := NewView(fs, dev)
	writer.EnableWriteBack(eng, 256, 8)
	reader := NewView(fs, dev) // no cache: reads straight from the device
	content := bytes.Repeat([]byte("cross-view "), 300)
	eng.Go("w", func(p *sim.Proc) {
		if err := writer.WriteFile(p, "f", content); err != nil {
			t.Error(err)
			return
		}
		writer.Flush(p)
		got, err := reader.ReadFile(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("flushed data not visible through the device")
		}
	})
	eng.Run()
}

func TestWriteBackRewriteLastWriterWins(t *testing.T) {
	eng := sim.NewEngine()
	v, dev := newWBView(eng)
	eng.Go("w", func(p *sim.Proc) {
		for round := 0; round < 10; round++ {
			data := bytes.Repeat([]byte{byte(round)}, 4*512)
			if err := v.WriteFile(p, "f", data); err != nil {
				t.Error(err)
				return
			}
		}
		v.Flush(p)
		got, err := v.ReadFile(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if got[0] != 9 {
			t.Errorf("read %d after rewrites, want 9", got[0])
		}
	})
	eng.Run()
	_ = dev
}

// loggedDevice records when each device write starts and ends.
type loggedDevice struct {
	*slowDevice
	starts, ends []sim.Time
}

func (d *loggedDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	d.starts = append(d.starts, p.Now())
	defer func() { d.ends = append(d.ends, p.Now()) }()
	return d.slowDevice.WritePages(p, lpn, data)
}

// A page rewritten while its first write-out is in flight is written out
// again only once that write has landed, and at that instant: the second
// flusher waits for the landing, not on a polling grid.
func TestWriteBackSerialisesWritesOfOnePage(t *testing.T) {
	eng := sim.NewEngine()
	dev := &loggedDevice{slowDevice: &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 500 * time.Microsecond}}
	v := NewView(NewFS(512, 8192), dev)
	v.EnableWriteBack(eng, 256, 8)
	eng.Go("w", func(p *sim.Proc) {
		for round := byte(1); round <= 2; round++ {
			v.write(p, 100, bytes.Repeat([]byte{round}, 512))
			p.Wait(103 * time.Microsecond) // not a multiple of 5µs: a flusher polling on that grid would start late
		}
		if err := v.Flush(p); err != nil {
			t.Error(err)
		}
		if got, _ := dev.ReadPages(p, 100, 1); got[0] != 2 {
			t.Errorf("page holds %d, want the second write", got[0])
		}
	})
	eng.Run()
	if len(dev.starts) != 2 {
		t.Fatalf("%d device writes, want 2", len(dev.starts))
	}
	if gap := dev.starts[1].Sub(dev.ends[0]); gap != 0 {
		t.Errorf("second write-out started %v after the first landed, want at once", gap)
	}
}

func TestWriteBackBudgetBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: time.Millisecond}
	v := NewView(NewFS(512, 8192), dev)
	v.EnableWriteBack(eng, 8, 2) // tiny budget, slow flushers
	var elapsed sim.Time
	eng.Go("w", func(p *sim.Proc) {
		if err := v.WriteFile(p, "f", make([]byte, 64*512)); err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now()
	})
	eng.Run()
	// 64 pages through an 8-page budget with 2 flushers at 1ms/page: the
	// writer must have blocked on backpressure for most of the stream.
	if elapsed < sim.Time(20*time.Millisecond) {
		t.Fatalf("writer finished in %v; budget did not apply backpressure", elapsed)
	}
}

func TestWriteBackDeleteWhileDirty(t *testing.T) {
	eng := sim.NewEngine()
	v, _ := newWBView(eng)
	eng.Go("w", func(p *sim.Proc) {
		if err := v.WriteFile(p, "f", bytes.Repeat([]byte{7}, 16*512)); err != nil {
			t.Error(err)
			return
		}
		if err := v.Delete(p, "f"); err != nil {
			t.Error(err)
			return
		}
		v.Flush(p)
		if _, err := v.FS().Stat("f"); err == nil {
			t.Error("file still present")
		}
		// Space must be reusable afterwards.
		if err := v.WriteFile(p, "g", bytes.Repeat([]byte{8}, 16*512)); err != nil {
			t.Error(err)
			return
		}
		v.Flush(p)
		got, err := v.ReadFile(p, "g")
		if err != nil || got[0] != 8 {
			t.Errorf("reuse after dirty delete: %v", err)
		}
	})
	eng.Run()
}

func TestWriteBackDisabledFlushIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	dev := newMemDevice(512, 4096)
	v := NewView(NewFS(512, 4096), dev)
	eng.Go("w", func(p *sim.Proc) {
		v.WriteFile(p, "f", []byte("sync"))
		before := p.Now()
		v.Flush(p)
		if p.Now() != before {
			t.Error("Flush on synchronous view consumed time")
		}
	})
	eng.Run()
}

// Property: any interleaving of writes, rewrites, deletes and flushes ends
// with every surviving file readable with its last-written content, from
// both the caching view and a raw second view after a final flush.
func TestWriteBackConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		dev := &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 100 * time.Microsecond}
		fs := NewFS(512, 8192)
		v := NewView(fs, dev)
		v.EnableWriteBack(eng, 64, 4)
		raw := NewView(fs, dev)
		shadow := map[string][]byte{}
		ok := true
		eng.Go("ops", func(p *sim.Proc) {
			for i := 0; i < int(opsN%40)+5; i++ {
				name := fmt.Sprintf("f%d", rng.Intn(5))
				switch rng.Intn(4) {
				case 0, 1, 2:
					data := make([]byte, rng.Intn(3000))
					rng.Read(data)
					if err := v.WriteFile(p, name, data); err != nil {
						ok = false
						return
					}
					shadow[name] = data
				case 3:
					if _, exists := shadow[name]; exists {
						if err := v.Delete(p, name); err != nil {
							ok = false
							return
						}
						delete(shadow, name)
					}
				}
				if rng.Intn(5) == 0 {
					v.Flush(p)
				}
			}
			v.Flush(p)
			for name, want := range shadow {
				got, err := raw.ReadFile(p, name)
				if err != nil || !bytes.Equal(got, want) {
					ok = false
					return
				}
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// faultyDevice fails writes while tripped, modelling a transient media
// fault window.
type faultyDevice struct {
	*memDevice
	failing bool
}

func (d *faultyDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	if d.failing {
		return fmt.Errorf("faultyDevice: injected write error at lpn %d", lpn)
	}
	return d.memDevice.WritePages(p, lpn, data)
}

// TestWriteBackFlushReportsErrorOnceThenRecovers: a background write error
// is sticky until the fsync barrier, reported there exactly once (Linux
// EIO semantics), and a caller that rewrites the lost data after the fault
// clears gets a clean second flush.
func TestWriteBackFlushReportsErrorOnceThenRecovers(t *testing.T) {
	eng := sim.NewEngine()
	dev := &faultyDevice{memDevice: newMemDevice(512, 8192)}
	v := NewView(NewFS(512, 8192), dev)
	v.EnableWriteBack(eng, 256, 8)
	payload := bytes.Repeat([]byte("durable "), 200)
	eng.Go("w", func(p *sim.Proc) {
		dev.failing = true
		if err := v.WriteFile(p, "f", payload); err != nil {
			t.Errorf("cached write must succeed, got %v", err)
			return
		}
		if err := v.Flush(p); err == nil {
			t.Error("flush after a lost background write reported no error")
			return
		}
		if err := v.Flush(p); err != nil {
			t.Errorf("second flush re-reported the consumed error: %v", err)
			return
		}
		dev.failing = false
		if err := v.WriteFile(p, "f", payload); err != nil {
			t.Errorf("rewrite: %v", err)
			return
		}
		if err := v.Flush(p); err != nil {
			t.Errorf("flush after recovery: %v", err)
			return
		}
		got, err := v.ReadFile(p, "f")
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("recovered file mismatch (err %v)", err)
		}
	})
	eng.Run()
}

// Flush waits for the writes queued before it and for no later one: A's
// flush returns the instant A's last page lands, while B keeps the cache
// from ever draining.
func TestFlushWaitsOnlyForEarlierWrites(t *testing.T) {
	eng := sim.NewEngine()
	dev := &loggedDevice{slowDevice: &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 500 * time.Microsecond}}
	v := NewView(NewFS(512, 8192), dev)
	v.EnableWriteBack(eng, 256, 8)
	var flushed, bDone sim.Time
	eng.Go("A", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 4; lpn++ {
			v.write(p, lpn, bytes.Repeat([]byte{'a'}, 512))
		}
		if err := v.Flush(p); err != nil {
			t.Error(err)
		}
		flushed = p.Now()
		for lpn := int64(0); lpn < 4; lpn++ {
			if got, _ := dev.ReadPages(p, lpn, 1); got[0] != 'a' {
				t.Errorf("lpn %d not on the device when A's flush returned", lpn)
			}
		}
	})
	eng.Go("B", func(p *sim.Proc) {
		// One page per 50µs outruns eight 500µs flushers: the queue never empties.
		for i := int64(0); i < 400; i++ {
			v.write(p, 100+i, bytes.Repeat([]byte{'b'}, 512))
			p.Wait(50 * time.Microsecond)
		}
		bDone = p.Now()
	})
	eng.Run()
	// A's four items head the queue, so the first four writes are A's.
	if landed := dev.ends[3]; flushed != landed {
		t.Fatalf("A's flush returned at %v, want %v, when A's last page landed (B wrote until %v)", flushed, landed, bDone)
	}
}

// volatileDevice acknowledges writes into a cache only Sync makes durable:
// durable is what a power cut leaves.
type volatileDevice struct {
	*slowDevice
	durable map[int64]byte
}

func (d *volatileDevice) Sync(p *sim.Proc) error {
	for lpn, pg := range d.store {
		d.durable[lpn] = pg[0]
	}
	return nil
}

// A flush answers for a page even when a later write supersedes it before it
// lands — dropped from the queue, or replaced while its write is in flight:
// a power cut right after the flush finds A's version of the page or a newer
// one, never an older.
func TestFlushCoversSupersededWrite(t *testing.T) {
	for _, overwriteAt := range []time.Duration{100 * time.Microsecond, 600 * time.Microsecond} {
		eng := sim.NewEngine()
		dev := &volatileDevice{slowDevice: &slowDevice{memDevice: newMemDevice(512, 8192), writeLatency: 500 * time.Microsecond}, durable: map[int64]byte{}}
		v := NewView(NewFS(512, 8192), dev)
		v.EnableWriteBack(eng, 256, 1) // one flusher: page 7 queues behind page 1
		var atCut byte
		var flushed sim.Time
		eng.Go("A", func(p *sim.Proc) {
			v.write(p, 1, bytes.Repeat([]byte{'f'}, 512))
			v.write(p, 7, bytes.Repeat([]byte{'a'}, 512))
			if err := v.Flush(p); err != nil {
				t.Error(err)
			}
			atCut, flushed = dev.durable[7], p.Now()
		})
		eng.Go("B", func(p *sim.Proc) {
			p.Wait(overwriteAt)
			v.write(p, 7, bytes.Repeat([]byte{'b'}, 512))
		})
		eng.Run()
		if atCut != 'a' && atCut != 'b' {
			t.Errorf("overwrite at %v: a power cut after A's flush (returned at %v) finds page 7 holding %q, want A's write or B's",
				overwriteAt, flushed, atCut)
		}
	}
}
