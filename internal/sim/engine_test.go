package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != Time(30*time.Millisecond) {
		t.Fatalf("end time = %v, want 30ms", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestEngineEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired as %d; same-time events must be FIFO", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.After(2*time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[1] != Time(3*time.Millisecond) {
		t.Fatalf("nested event at %v, want 3ms", fired[1])
	}
}

func TestEngineSchedulingIntoPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(Time(time.Millisecond), func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(Time(3 * time.Second))
	if count != 3 {
		t.Fatalf("ran %d events before deadline, want 3", count)
	}
	if e.q.len() != 2 {
		t.Fatalf("pending = %d, want 2", e.q.len())
	}
	e.Run()
	if count != 5 {
		t.Fatalf("ran %d events total, want 5", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.After(time.Second, func() { n++ })
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if n != 1 {
		t.Fatal("event did not fire")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestDurationFor(t *testing.T) {
	cases := []struct {
		n    int64
		bps  float64
		want time.Duration
	}{
		{0, 1e9, 0},
		{-5, 1e9, 0},
		{1e9, 1e9, time.Second},
		{500, 1e9, 500 * time.Nanosecond},
		{1, 1e12, time.Nanosecond}, // rounds up, never zero
	}
	for _, c := range cases {
		if got := DurationFor(c.n, c.bps); got != c.want {
			t.Errorf("DurationFor(%d, %g) = %v, want %v", c.n, c.bps, got, c.want)
		}
	}
}

func TestDurationForNeverZeroForPositiveBytes(t *testing.T) {
	f := func(n uint32, bw uint32) bool {
		bytes := int64(n%1e6) + 1
		bps := float64(bw%1e9) + 1
		return DurationFor(bytes, bps) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationForMonotonicInBytes(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%1e6), int64(b%1e6)
		if x > y {
			x, y = y, x
		}
		return DurationFor(x, 1e8) <= DurationFor(y, 1e8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub wrong: %v", tm.Sub(Time(time.Second)))
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration wrong: %v", tm.Duration())
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}
