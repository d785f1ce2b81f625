package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"compstor/internal/pcie"
	"compstor/internal/sim"
)

// fakeBackend is an in-memory page store for protocol tests.
type fakeBackend struct {
	pageSize int
	pages    map[int64][]byte
	vendorFn func(p *sim.Proc, op Opcode, payload any) (any, int64, error)
	failRead bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{pageSize: 512, pages: make(map[int64][]byte)}
}

func (f *fakeBackend) PageSize() int         { return f.pageSize }
func (f *fakeBackend) Flush(*sim.Proc) error { return nil }

func (f *fakeBackend) Read(p *sim.Proc, lba, pages int64, out []byte) error {
	if f.failRead {
		return errors.New("media error")
	}
	clear(out)
	for i := int64(0); i < pages; i++ {
		copy(out[int(i)*f.pageSize:], f.pages[lba+i])
	}
	return nil
}

func (f *fakeBackend) Write(p *sim.Proc, lba int64, data []byte) error {
	for i := 0; i*f.pageSize < len(data); i++ {
		pg := make([]byte, f.pageSize)
		copy(pg, data[i*f.pageSize:])
		f.pages[lba+int64(i)] = pg
	}
	return nil
}

func (f *fakeBackend) Trim(p *sim.Proc, lba, pages int64) error {
	for i := int64(0); i < pages; i++ {
		delete(f.pages, lba+i)
	}
	return nil
}

func (f *fakeBackend) Vendor(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
	if f.vendorFn != nil {
		return f.vendorFn(p, op, payload)
	}
	return nil, 0, errors.New("no vendor handler")
}

func newRig(be Backend) (*sim.Engine, *Driver, *Controller) {
	eng := sim.NewEngine()
	fabric := pcie.NewFabric(eng)
	ctrl := NewController(eng, fabric.AddPort(), be)
	return eng, ctrl.Driver(), ctrl
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	be := newFakeBackend()
	eng, drv, ctrl := newRig(be)
	payload := bytes.Repeat([]byte{0xCD}, 2*be.pageSize)
	eng.Go("host", func(p *sim.Proc) {
		if err := drv.Write(p, 10, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := drv.Read(p, 10, 2)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("data corrupted through NVMe round trip")
		}
	})
	eng.Run()
	st := ctrl.Stats()
	if st.WritePages != 2 || st.ReadPages != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesFromHo < int64(len(payload)) || st.BytesToHost < int64(len(payload)) {
		t.Fatalf("DMA byte counters too small: %+v", st)
	}
}

func TestUnalignedWriteRejected(t *testing.T) {
	be := newFakeBackend()
	eng, drv, _ := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		err := drv.Write(p, 0, []byte{1, 2, 3})
		if err == nil {
			t.Error("unaligned write accepted")
		}
	})
	eng.Run()
}

func TestTrim(t *testing.T) {
	be := newFakeBackend()
	eng, drv, ctrl := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		drv.Write(p, 5, bytes.Repeat([]byte{1}, be.pageSize))
		if err := drv.Trim(p, 5, 1); err != nil {
			t.Errorf("trim: %v", err)
		}
		got, _ := drv.Read(p, 5, 1)
		if got[0] != 0 {
			t.Error("trimmed page not zero")
		}
	})
	eng.Run()
	if ctrl.Stats().TrimPages != 1 {
		t.Fatalf("trim pages = %d", ctrl.Stats().TrimPages)
	}
}

func TestBackendErrorSurfacesAsStatus(t *testing.T) {
	be := newFakeBackend()
	be.failRead = true
	eng, drv, ctrl := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		comp := drv.Submit(p, &Command{Op: OpRead, LBA: 0, Pages: 1, Data: make([]byte, be.pageSize)})
		if comp.Status != StatusInternal {
			t.Errorf("status = %v, want INTERNAL", comp.Status)
		}
		if comp.Err == nil {
			t.Error("error detail missing")
		}
	})
	eng.Run()
	if ctrl.Stats().Failures != 1 {
		t.Fatalf("failures = %d", ctrl.Stats().Failures)
	}
}

func TestVendorCommandRoundTrip(t *testing.T) {
	be := newFakeBackend()
	be.vendorFn = func(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
		if op != OpVendorMinion {
			return nil, 0, fmt.Errorf("wrong op %v", op)
		}
		return "result:" + payload.(string), 64, nil
	}
	eng, drv, _ := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		comp := drv.Submit(p, &Command{Op: OpVendorMinion, Payload: "task", PayloadBytes: 128})
		if comp.Status != StatusOK {
			t.Errorf("vendor status = %v (%v)", comp.Status, comp.Err)
		}
		if comp.Payload != "result:task" {
			t.Errorf("payload = %v", comp.Payload)
		}
	})
	eng.Run()
}

func TestUnknownOpcodeFails(t *testing.T) {
	be := newFakeBackend()
	eng, drv, _ := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		comp := drv.Submit(p, &Command{Op: Opcode(99)})
		if comp.Status == StatusOK {
			t.Error("unknown opcode succeeded")
		}
	})
	eng.Run()
}

// TestQueueDepthLimitsOutstanding fills the queue with slow vendor
// commands and then issues one read: the read is admitted at once while a
// slot is free, and waits for the first vendor completion when all
// queueDepth slots are taken — the bound is exactly queueDepth.
func TestQueueDepthLimitsOutstanding(t *testing.T) {
	const task = 10 * time.Millisecond
	for _, held := range []int{queueDepth - 1, queueDepth} {
		be := newFakeBackend()
		be.vendorFn = func(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
			p.Wait(task)
			return nil, 0, nil
		}
		eng, drv, _ := newRig(be)
		for i := 0; i < held; i++ {
			eng.Go("minion", func(p *sim.Proc) {
				drv.Submit(p, &Command{Op: OpVendorMinion, Payload: "task", PayloadBytes: 64})
			})
		}
		var readDone sim.Time
		eng.Go("reader", func(p *sim.Proc) {
			p.Wait(time.Millisecond) // every vendor command is admitted by now
			if _, err := drv.Read(p, 0, 1); err != nil {
				t.Error(err)
			}
			readDone = p.Now()
		})
		eng.Run()
		if readDone == 0 {
			t.Fatalf("%d slots held: the read never completed", held)
		}
		if waited := readDone > sim.Time(task); waited != (held == queueDepth) {
			t.Errorf("%d slots held: read completed at %v (waited for a slot: %v, want %v)",
				held, readDone, waited, held == queueDepth)
		}
	}
}

func TestCompletionLatencyPositive(t *testing.T) {
	be := newFakeBackend()
	eng, drv, _ := newRig(be)
	eng.Go("host", func(p *sim.Proc) {
		comp := drv.Submit(p, &Command{Op: OpRead, LBA: 0, Pages: 1, Data: make([]byte, be.pageSize)})
		if comp.Latency() <= 0 {
			t.Errorf("latency = %v, want > 0", comp.Latency())
		}
	})
	eng.Run()
}

func TestConcurrentMixedWorkloadIntegrity(t *testing.T) {
	be := newFakeBackend()
	eng, drv, _ := newRig(be)
	const workers = 16
	for w := 0; w < workers; w++ {
		w := w
		eng.Go("host", func(p *sim.Proc) {
			lba := int64(w * 10)
			data := bytes.Repeat([]byte{byte(w + 1)}, be.pageSize)
			if err := drv.Write(p, lba, data); err != nil {
				t.Errorf("w%d write: %v", w, err)
				return
			}
			got, err := drv.Read(p, lba, 1)
			if err != nil {
				t.Errorf("w%d read: %v", w, err)
				return
			}
			if got[0] != byte(w+1) {
				t.Errorf("w%d read back %d", w, got[0])
			}
		})
	}
	eng.Run()
}

// The convenience calls recycle their command and completion; a completion
// returned by Submit is the caller's and must survive whatever runs after
// it, and overlapping convenience calls must each see their own outcome.
func TestRecycledCompletionsStayApart(t *testing.T) {
	be := newFakeBackend()
	eng, drv, _ := newRig(be)
	buf := make([]byte, be.pageSize)
	eng.Go("owner", func(p *sim.Proc) {
		if err := drv.Write(p, 3, bytes.Repeat([]byte{9}, be.pageSize)); err != nil {
			t.Error(err)
			return
		}
		kept := drv.Submit(p, &Command{Op: OpRead, LBA: 3, Pages: 1, Data: buf})
		snapshot := *kept
		for i := 0; i < 4; i++ {
			if err := drv.Trim(p, 100, 1); err != nil {
				t.Error(err)
			}
			if err := drv.Write(p, 0, buf[:1]); err == nil { // unaligned: fails
				t.Error("unaligned write succeeded")
			}
		}
		if kept.Status != StatusOK || kept.Err != nil || buf[0] != 9 ||
			kept.Submitted != snapshot.Submitted || kept.Completed != snapshot.Completed {
			t.Errorf("Submit's completion changed under later commands: %+v, was %+v", *kept, snapshot)
		}
	})
	for w := 0; w < 8; w++ {
		w := w
		eng.Go("host", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				var err error
				if w%2 == 0 {
					err = drv.Write(p, int64(200+w), buf[:w+1]) // unaligned: fails
				} else {
					err = drv.Flush(p)
				}
				if (err != nil) != (w%2 == 0) {
					t.Errorf("host %d round %d: err = %v", w, i, err)
				}
			}
		})
	}
	eng.Run()
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	for op, want := range map[Opcode]string{
		OpRead: "READ", OpWrite: "WRITE", OpFlush: "FLUSH", OpTrim: "TRIM",
		OpVendorMinion: "VENDOR_MINION",
		OpVendorQuery:  "VENDOR_QUERY", OpVendorTaskLoad: "VENDOR_TASK_LOAD",
		Opcode(200): "OP(200)",
	} {
		if op.String() != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	for s, want := range map[Status]string{
		StatusOK: "OK", StatusInvalid: "INVALID", StatusCapacity: "CAPACITY",
		StatusInternal: "INTERNAL", Status(9): "STATUS(9)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
