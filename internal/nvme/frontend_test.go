package nvme

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"compstor/internal/sim"
)

// heldBackend is a fakeBackend whose reads and vendor commands log their
// start and end, and hold their front-end slot for hold(i) of virtual time,
// i being a read's LBA or a vendor command's payload.
type heldBackend struct {
	*fakeBackend
	eng  *sim.Engine
	hold func(lba int64) time.Duration
	log  []string
}

func (b *heldBackend) note(format string, args ...any) {
	b.log = append(b.log, fmt.Sprintf("%v ", b.eng.Now())+fmt.Sprintf(format, args...))
}

func (b *heldBackend) Read(p *sim.Proc, lba, pages int64, out []byte) error {
	b.note("start %d", lba)
	p.Wait(b.hold(lba))
	b.note("end %d", lba)
	return b.fakeBackend.Read(p, lba, pages, out)
}

// Vendor takes the command's index as its payload.
func (b *heldBackend) Vendor(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
	i := payload.(int64)
	b.note("start %d", i)
	p.Wait(b.hold(i))
	b.note("end %d", i)
	return nil, 0, nil
}

func newHeldRig(hold func(lba int64) time.Duration) (*sim.Engine, *Driver, *Controller, *heldBackend) {
	be := &heldBackend{fakeBackend: newFakeBackend(), hold: hold}
	eng, drv, ctrl := newRig(be)
	be.eng = eng
	return eng, drv, ctrl, be
}

// startsAndEnds indexes a heldBackend log by command.
func startsAndEnds(t *testing.T, log []string, n int) (start, end []sim.Time) {
	start, end = make([]sim.Time, n), make([]sim.Time, n)
	for _, l := range log {
		var at, what string
		var i int
		if _, err := fmt.Sscan(l, &at, &what, &i); err != nil {
			t.Fatalf("log line %q: %v", l, err)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			t.Fatalf("log line %q: %v", l, err)
		}
		if what == "start" {
			start[i] = sim.Time(d)
		} else {
			end[i] = sim.Time(d)
		}
	}
	return start, end
}

// One command more than the front-end executes at once, and one more still,
// each start only when an earlier command has completed, in the order they
// were submitted: vendor commands beyond vendorWorkers and I/O commands
// beyond ioWorkers.
func TestFrontEndSlotsAdmitInFIFOOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slots int
		op    Opcode
	}{{"vendor", vendorWorkers, OpVendorQuery}, {"io", ioWorkers, OpRead}} {
		// Command i holds 10 ms + i·100 µs, so the completions are ordered.
		eng, drv, ctrl, be := newHeldRig(func(lba int64) time.Duration {
			return 10*time.Millisecond + time.Duration(lba)*100*time.Microsecond
		})
		n := tc.slots + 2
		for i := 0; i < n; i++ {
			eng.Go("host", func(p *sim.Proc) {
				cmd := &Command{Op: tc.op, LBA: int64(i), Pages: 1, Data: make([]byte, be.pageSize), Payload: int64(i)}
				if comp := drv.Submit(p, cmd); comp.Status != StatusOK {
					t.Errorf("%s %d: %v", tc.name, i, comp.Err)
				}
			})
		}
		eng.RunUntil(sim.Time(time.Millisecond))
		if got := ctrl.frontEnd(tc.op).QueueLen(); got != 2 {
			t.Errorf("%s: %d commands wait for a front-end slot, want 2", tc.name, got)
		}
		eng.Run()
		start, end := startsAndEnds(t, be.log, n)
		for i := 1; i < tc.slots; i++ {
			if start[i] >= end[0] {
				t.Errorf("%s: command %d started at %v, after command 0 ended (%v): want the first %d at once",
					tc.name, i, start[i], end[0], tc.slots)
			}
		}
		for k, i := range []int{tc.slots, tc.slots + 1} {
			if start[i] <= end[k] || start[i] >= end[k+1] {
				t.Errorf("%s: command %d started at %v, want after command %d ended (%v) and before command %d did (%v)",
					tc.name, i, start[i], k, end[k], k+1, end[k+1])
			}
		}
	}
}

// queueDepth still bounds admission with the front-end saturated: of
// queueDepth+1 reads, ioWorkers execute, the rest of the queue depth waits
// for a front-end slot, and the last waits to be admitted at all.
func TestQueueDepthBoundsAdmissionBeforeFrontEnd(t *testing.T) {
	eng, drv, ctrl, be := newHeldRig(func(int64) time.Duration { return 10 * time.Millisecond })
	for i := 0; i < queueDepth+1; i++ {
		eng.Go("host", func(p *sim.Proc) {
			if _, err := drv.Read(p, int64(i), 1); err != nil {
				t.Error(err)
			}
		})
	}
	eng.RunUntil(sim.Time(time.Millisecond))
	if qd, fe := ctrl.qd.QueueLen(), ctrl.io.QueueLen(); qd != 1 || fe != queueDepth-ioWorkers {
		t.Errorf("%d wait for admission and %d for a front-end slot; want 1 and %d", qd, fe, queueDepth-ioWorkers)
	}
	eng.Run()
	if got := len(be.log); got != 2*(queueDepth+1) {
		t.Errorf("%d log lines, want a start and an end for each of %d reads", got, queueDepth+1)
	}
}

// Two reads submitted at one instant beside a callback ticking every
// nanosecond, which logs how many commands the controller has begun: where
// each command begins, starts and ends in the backend, and where each
// submitter resumes, relative to the tick at the same instant. The instants
// and their order are the ones the controller gave when a pool of front-end
// processes fed by a mailbox ran every command.
func TestTwoSubmittersKeepTheirDispatchOrder(t *testing.T) {
	eng, drv, ctrl, be := newHeldRig(func(lba int64) time.Duration { return time.Duration(lba) * 700 })
	var tick func()
	tick = func() {
		be.note("tick %d", ctrl.Stats().Commands)
		if eng.Now() < sim.Time(10*time.Microsecond) {
			eng.After(1, tick)
		}
	}
	eng.At(0, tick)
	for _, lba := range []int64{1, 2} {
		eng.Go("host", func(p *sim.Proc) {
			if _, err := drv.Read(p, lba, 1); err != nil {
				t.Error(err)
			}
			be.note("done %d", lba)
		})
	}
	eng.Run()
	// Keep the command events, the ticks at their instants, and the ticks
	// that see a command begun since the tick before.
	at := map[string]bool{}
	for _, l := range be.log {
		if f := strings.Fields(l); f[1] != "tick" {
			at[f[0]] = true
		}
	}
	var got []string
	prev := "tick 0"
	for _, l := range be.log {
		f := strings.Fields(l)
		if at[f[0]] || (f[1] == "tick" && f[1]+" "+f[2] != prev) {
			got = append(got, l)
		}
		if f[1] == "tick" {
			prev = f[1] + " " + f[2]
		}
	}
	want := []string{
		"801ns tick 2", // both began after the tick at the doorbells' 800 ns
		"1.636µs start 1", "1.636µs tick 2",
		"1.668µs start 2", "1.668µs tick 2",
		"2.336µs end 1", "2.336µs tick 2",
		"3.068µs end 2", "3.068µs tick 2",
		"5.033µs tick 2", "5.033µs done 1", // the submitter resumes after the tick
		"5.765µs tick 2", "5.765µs done 2",
	}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order\ngot  %q\nwant %q", got, want)
	}
}

// The front-end slot goes back on every way out of a command: a fault-hook
// rejection, a backend error, and a Shutdown unwinding commands parked in
// the backend.
func TestFrontEndSlotReleasedOnEveryExit(t *testing.T) {
	eng, drv, ctrl, be := newHeldRig(func(int64) time.Duration { return time.Millisecond })
	ctrl.SetFaultHook(func(p *sim.Proc, cmd *Command) error {
		if v, _ := cmd.Payload.(int64); v < 0 {
			return fmt.Errorf("rejected")
		}
		return nil
	})
	be.failRead = true
	for i := 0; i < 3*vendorWorkers; i++ {
		eng.Go("host", func(p *sim.Proc) {
			drv.Submit(p, &Command{Op: OpVendorQuery, Payload: int64(-1)})
			drv.Read(p, 0, 1)
		})
	}
	eng.Run()
	be.log = nil
	if st := ctrl.Stats(); st.Failures != 6*vendorWorkers {
		t.Fatalf("%d failures, want %d: every vendor command rejected, every read failed", st.Failures, 6*vendorWorkers)
	}
	// Every slot is free again: vendorWorkers commands start together and one
	// more queues. A Shutdown then unwinds the ones parked in the backend,
	// and their slots go to the queued one.
	base := eng.Now()
	for i := 0; i <= vendorWorkers; i++ {
		eng.Go("host", func(p *sim.Proc) {
			drv.Submit(p, &Command{Op: OpVendorQuery, Payload: int64(i)})
		})
	}
	eng.RunUntil(base.Add(100 * time.Microsecond))
	if n := len(be.log); n != vendorWorkers || ctrl.vendor.QueueLen() != 1 {
		t.Fatalf("%d commands started and %d queued, want %d and 1", n, ctrl.vendor.QueueLen(), vendorWorkers)
	}
	eng.Shutdown()
	if ctrl.vendor.QueueLen() != 0 {
		t.Error("a Shutdown unwind kept its front-end slot: the queued command was never granted one")
	}
}
