package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"compstor/internal/core"
	"compstor/internal/nvme"
	"compstor/internal/sim"
)

func tailGrep(name string) core.Command {
	return core.Command{Exec: "grep", Args: []string{"-c", "text", name}}
}

// pinned is a Balancer that always picks one device, for tests that place
// the task themselves and want Dispatch's full retry path.
type pinned int

func (d pinned) Pick(*sim.Proc, *Pool) (int, error) { return int(d), nil }

// --- backoff jitter (satellite: seeded full jitter + determinism) ---

func TestBackoffJitterDeterministic(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		sys, pool := newSystem(t, 1)
		_ = sys
		pool.Retry.Jitter = true
		pool.SetSeed(seed)
		var out []time.Duration
		for attempt := 1; attempt <= 32; attempt++ {
			out = append(out, pool.backoffDelay(attempt%6+1))
		}
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter traces")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	_, pool := newSystem(t, 1)
	pool.Retry.Jitter = true
	pool.SetSeed(7)
	for attempt := 1; attempt <= 6; attempt++ {
		ceil := backoff(attempt)
		for i := 0; i < 200; i++ {
			d := pool.backoffDelay(attempt)
			if d <= 0 || d > ceil {
				t.Fatalf("attempt %d: jittered delay %v outside (0, %v]", attempt, d, ceil)
			}
		}
	}
}

// TestJitterWithoutSeedFallsBack: Jitter without SetSeed keeps the plain
// exponential schedule rather than panicking or zeroing delays.
func TestJitterWithoutSeedFallsBack(t *testing.T) {
	_, pool := newSystem(t, 1)
	pool.Retry.Jitter = true
	for attempt := 1; attempt <= 4; attempt++ {
		if got, want := pool.backoffDelay(attempt), backoff(attempt); got != want {
			t.Fatalf("attempt %d: %v, want unjittered %v", attempt, got, want)
		}
	}
}

// --- retry budget ---

// failingAgent makes device dev drop every minion on its way to the agent,
// a pure transport fault. DeadAfter is disabled by the callers: the device
// misbehaves, it does not die.
func failingAgent(pool *Pool, dev int) {
	pool.Unit(dev).Drive.SetFaultHook(func(p *sim.Proc, op nvme.Opcode) error {
		if op == nvme.OpVendorMinion {
			return fmt.Errorf("test: dropped")
		}
		return nil
	})
}

func TestRetryBudgetBoundsRetryStorm(t *testing.T) {
	const tasks = 30
	run := func(budgeted bool) (attempts int, denied int) {
		sys, pool := newSystem(t, 1)
		pool.Retry.DeadAfter = 0
		pool.Retry.MaxAttempts = 4
		if budgeted {
			pool.Budget = DefaultRetryBudget()
		}
		sys.Go("driver", func(p *sim.Proc) {
			if err := pool.StageReplicated(p, corpus(1)); err != nil {
				t.Errorf("stage: %v", err)
				return
			}
			failingAgent(pool, 0)
			for i := 0; i < tasks; i++ {
				r := pool.Dispatch(p, pinned(0), tailGrep("books/book000.txt"))
				attempts += r.Attempts
				if r.Err == nil {
					t.Error("task unexpectedly succeeded on a dropping device")
				}
				if errors.Is(r.Err, ErrRetryBudgetExhausted) {
					denied++
				}
			}
		})
		sys.Run()
		return attempts, denied
	}

	unbudgeted, deniedUn := run(false)
	budgeted, denied := run(true)
	if deniedUn != 0 {
		t.Fatalf("unbudgeted run reported %d budget denials", deniedUn)
	}
	if unbudgeted != tasks*4 {
		t.Fatalf("unbudgeted attempts %d, want %d (every task retried to its limit)", unbudgeted, tasks*4)
	}
	// With zero successes the bucket never refills: total retries across the
	// storm are bounded by the initial tokens.
	if retries := budgeted - tasks; retries > budgetCapacity {
		t.Fatalf("budgeted retries %d exceed the %v-token budget", retries, budgetCapacity)
	}
	if denied == 0 {
		t.Fatal("no task saw ErrRetryBudgetExhausted during the storm")
	}
	if budgeted*2 > unbudgeted {
		t.Fatalf("budget did not bound amplification: %d budgeted vs %d unbudgeted attempts", budgeted, unbudgeted)
	}
}

func TestRetryBudgetRefillsOnSuccess(t *testing.T) {
	_, pool := newSystem(t, 1)
	pool.Budget = DefaultRetryBudget()
	for i := 0; i < budgetCapacity; i++ {
		if !pool.budgetTake() {
			t.Fatalf("bucket dry after %d takes, capacity %v", i, budgetCapacity)
		}
	}
	if pool.budgetTake() {
		t.Fatal("take succeeded on a dry bucket")
	}
	// Successes earn retries back at 0.1 token each (11, not 10: summing
	// ten 0.1s in floating point lands a hair under a full token).
	for i := 0; i < 11; i++ {
		pool.budgetRefill()
	}
	if !pool.budgetTake() {
		t.Fatal("refilled bucket refused a take")
	}
}

// --- hedged requests ---

// slowDrive delays every backend command on dev by d.
func slowDrive(pool *Pool, dev int, d time.Duration) {
	pool.Unit(dev).Drive.SetFaultHook(func(p *sim.Proc, op nvme.Opcode) error {
		p.Wait(d)
		return nil
	})
}

func TestHedgeRescuesSlowDevice(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Hedge = DefaultHedgePolicy()
	// Warm the latency quantile as ~1ms so the hedge arms at ~1ms.
	for i := 0; i < 64; i++ {
		pool.noteLatency(time.Millisecond)
	}
	var lat time.Duration
	var err error
	sys.Go("driver", func(p *sim.Proc) {
		if serr := pool.StageReplicated(p, corpus(1)); serr != nil {
			t.Errorf("stage: %v", serr)
			return
		}
		slowDrive(pool, 0, 20*time.Millisecond)
		t0 := p.Now()
		_, _, err = pool.RunHedged(p, 0, tailGrep("books/book000.txt"))
		lat = p.Now().Sub(t0)
	})
	sys.Run()
	if err != nil {
		t.Fatalf("hedged run failed: %v", err)
	}
	if lat >= 20*time.Millisecond {
		t.Fatalf("hedge did not rescue the request: latency %v on a 20ms-slow primary", lat)
	}
	hs := pool.HedgeStats()
	if hs.Issued != 1 || hs.Won != 1 {
		t.Fatalf("hedge stats %+v, want one issued, one won", hs)
	}
	// The losing primary must have been canceled and drained — the engine
	// returning from Run proves no proc is still parked.
	if n := pool.TotalInFlight(); n != 0 {
		t.Fatalf("%d tasks still in flight after drain", n)
	}
}

// TestHedgePrimaryWinIsWasted: hedging a healthy primary costs a wasted
// secondary, not a wrong answer. The quantile is warmed far below the
// floor, so the hedge arms at hedgeMinDelay; the scan is long enough to
// still be running then, and the primary's head start wins the race.
func TestHedgePrimaryWinIsWasted(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Hedge = DefaultHedgePolicy()
	for i := 0; i < hedgeMinSamples; i++ {
		pool.noteLatency(time.Nanosecond)
	}
	long := File{Name: "long.txt", Data: bytes.Repeat([]byte("line of text with words\n"), 20_000)}
	var out string
	var lat time.Duration
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []File{long}); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		t0 := p.Now()
		resp, _, err := pool.RunHedged(p, 0, tailGrep(long.Name))
		lat = p.Now().Sub(t0)
		if err != nil {
			t.Errorf("hedged run failed: %v", err)
			return
		}
		out = string(resp.Stdout)
	})
	sys.Run()
	if strings.TrimSpace(out) != "20000" {
		t.Fatalf("grep -c = %q, want 20000", out)
	}
	if lat <= hedgeMinDelay {
		t.Fatalf("primary answered in %v, inside the %v floor: nothing raced", lat, hedgeMinDelay)
	}
	if hs := pool.HedgeStats(); hs.Issued != 1 || hs.Wasted != 1 || hs.Won != 0 {
		t.Fatalf("hedge stats %+v, want one issued at the floor and wasted", hs)
	}
	if n := pool.TotalInFlight(); n != 0 {
		t.Fatalf("%d tasks still in flight after drain", n)
	}
}

// TestHedgeColdQuantileFallsBack: until hedgeMinSamples latencies are observed,
// RunHedged must behave exactly like the plain path.
func TestHedgeColdQuantileFallsBack(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Hedge = DefaultHedgePolicy()
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, corpus(1)); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		if _, _, err := pool.RunHedged(p, 0, tailGrep("books/book000.txt")); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	sys.Run()
	if hs := pool.HedgeStats(); hs.Issued != 0 {
		t.Fatalf("cold pool hedged anyway: %+v", hs)
	}
}

// --- health scoring / circuit breaking ---

// trip forces device dev into quarantine via the public scoring path: a
// healthy baseline on every device, then slow samples on dev.
func trip(t *testing.T, p *sim.Proc, pool *Pool, dev int) {
	t.Helper()
	base := time.Millisecond
	for i := 0; i < pool.Size(); i++ {
		for n := 0; n < healthMinSamples; n++ {
			pool.recordHealth(p, i, "grep", base, false)
		}
	}
	for n := 0; n < 8 && pool.DeviceHealth(dev) == HealthHealthy; n++ {
		pool.recordHealth(p, dev, "grep", 20*base, false)
	}
	if got := pool.DeviceHealth(dev); got != HealthQuarantined {
		t.Fatalf("device %d state %v after slow samples, want quarantined", dev, got)
	}
}

// TestHealthComparesLikeWithLike: a healthy device that drew a run of slow
// programs is not a gray device. One latency EWMA over the mix tripped it:
// with the read pipeline on and grep's CPU share at 0.75, serve_mix's gray
// point lost healthy devices beside the failing one that way. A device slow
// at the same program as its peers still trips.
func TestHealthComparesLikeWithLike(t *testing.T) {
	sys, pool := newSystem(t, 4)
	pool.Health = DefaultHealthPolicy()
	grep, gzip := time.Millisecond, 14*time.Millisecond
	sys.Go("t", func(p *sim.Proc) {
		for n := 0; n < healthMinSamples; n++ {
			for i := 0; i < pool.Size(); i++ {
				pool.recordHealth(p, i, "grep", grep, false)
				pool.recordHealth(p, i, "gzip", gzip, false)
			}
		}
		for n := 0; n < 2*healthMinSamples; n++ { // device 3 draws the gzips
			for i := 0; i < 3; i++ {
				pool.recordHealth(p, i, "grep", grep, false)
			}
			pool.recordHealth(p, 3, "gzip", gzip, false)
		}
		if got := pool.DeviceHealth(3); got != HealthHealthy {
			t.Fatalf("device 3 %v after a run of gzips at the peers' gzip latency", got)
		}
		for n := 0; n < 8 && pool.DeviceHealth(3) == HealthHealthy; n++ {
			pool.recordHealth(p, 3, "grep", 20*grep, false)
		}
		if got := pool.DeviceHealth(3); got != HealthQuarantined {
			t.Fatalf("device 3 %v after greps 20x slower than its peers', want quarantined", got)
		}
	})
	sys.Run()
}

func TestHealthQuarantineProbationReadmit(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Health = DefaultHealthPolicy()
	sys.Go("driver", func(p *sim.Proc) {
		trip(t, p, pool, 1)
		if pool.HealthyFraction() != 0.5 {
			t.Errorf("healthy fraction %v, want 0.5", pool.HealthyFraction())
		}
		if pool.routable(1) {
			t.Error("quarantined device still routable")
		}
		// Cooldown elapses: half-open.
		p.Wait(pool.Health.cooldown() + time.Millisecond)
		if got := pool.DeviceHealth(1); got != HealthProbation {
			t.Fatalf("state %v after cooldown, want probation", got)
		}
		// Exactly one probe may be outstanding.
		if i, ok := pool.probePick(); !ok || i != 1 {
			t.Fatalf("probePick = %d,%v, want device 1", i, ok)
		}
		if _, ok := pool.probePick(); ok {
			t.Fatal("second concurrent probe allowed")
		}
		// Probe succeeds; two more readmit it.
		pool.recordHealth(p, 1, "grep", time.Millisecond, false)
		for n := 0; n < healthProbeSuccesses-1; n++ {
			if i, ok := pool.probePick(); !ok || i != 1 {
				t.Fatalf("probe %d not routed", n)
			}
			pool.recordHealth(p, 1, "grep", time.Millisecond, false)
		}
		if got := pool.DeviceHealth(1); got != HealthHealthy {
			t.Fatalf("state %v after %d probe successes, want healthy", got, healthProbeSuccesses)
		}
	})
	sys.Run()
	hc := pool.HealthStats()
	if hc.Quarantines != 1 || hc.Readmits != 1 || hc.Probes != healthProbeSuccesses {
		t.Fatalf("health counters %+v", hc)
	}
}

func TestHealthProbeFailureEscalatesCooldown(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Health = DefaultHealthPolicy()
	sys.Go("driver", func(p *sim.Proc) {
		trip(t, p, pool, 1)
		p.Wait(pool.Health.cooldown() + time.Millisecond)
		if i, ok := pool.probePick(); !ok || i != 1 {
			t.Fatal("no probe routed")
		}
		pool.recordHealth(p, 1, "grep", time.Millisecond, true) // probe fails
		if got := pool.DeviceHealth(1); got != HealthQuarantined {
			t.Fatalf("state %v after failed probe, want quarantined", got)
		}
		// The cooldown doubled: still quarantined after the base dwell.
		p.Wait(pool.Health.cooldown() + time.Millisecond)
		if got := pool.DeviceHealth(1); got != HealthQuarantined {
			t.Fatalf("state %v inside doubled cooldown, want quarantined", got)
		}
		p.Wait(pool.Health.cooldown())
		if got := pool.DeviceHealth(1); got != HealthProbation {
			t.Fatalf("state %v after doubled cooldown, want probation", got)
		}
	})
	sys.Run()
	if q := pool.HealthStats().Quarantines; q != 2 {
		t.Fatalf("quarantines = %d, want 2 (trip + failed probe)", q)
	}
}

func TestHealthErrorRateTrips(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Health = DefaultHealthPolicy()
	sys.Go("driver", func(p *sim.Proc) {
		for n := 0; n < healthMinSamples; n++ {
			pool.recordHealth(p, 0, "grep", time.Millisecond, false)
		}
		for n := 0; n < 16 && pool.DeviceHealth(0) == HealthHealthy; n++ {
			pool.recordHealth(p, 0, "grep", time.Millisecond, true)
		}
		if got := pool.DeviceHealth(0); got != HealthQuarantined {
			t.Fatalf("state %v after sustained failures, want quarantined", got)
		}
	})
	sys.Run()
}

// TestGrayDeviceGetsOnlyProbeTraffic is the balance regression (satellite):
// once a device trips, every balancer must route it nothing but single
// probe requests until it earns readmission.
func TestGrayDeviceGetsOnlyProbeTraffic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Balancer
	}{
		{"roundrobin", func() Balancer { return &RoundRobin{} }},
		{"leastoutstanding", func() Balancer { return LeastOutstanding{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, pool := newSystem(t, 3)
			pool.Health = DefaultHealthPolicy()
			b := tc.mk()
			counts := make([]int, 3)
			sys.Go("driver", func(p *sim.Proc) {
				if err := pool.StageReplicated(p, corpus(1)); err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				trip(t, p, pool, 0)
				// While quarantined: zero traffic to device 0.
				for i := 0; i < 12; i++ {
					r := pool.Dispatch(p, b, tailGrep("books/book000.txt"))
					if r.Err != nil {
						t.Errorf("dispatch: %v", r.Err)
						return
					}
					counts[r.Device]++
				}
				if counts[0] != 0 {
					t.Errorf("quarantined device took %d requests", counts[0])
				}
				// Past the cooldown the device goes half-open and may take
				// probe traffic — and only probe traffic. It is still broken
				// (transport faults now), so the probe fails and the breaker
				// re-opens with a doubled cooldown; no more requests reach it.
				failingAgent(pool, 0)
				p.Wait(pool.Health.cooldown() + time.Millisecond)
				probesBefore := pool.HealthStats().Probes
				for i := 0; i < 12; i++ {
					r := pool.Dispatch(p, b, tailGrep("books/book000.txt"))
					if r.Err != nil && r.Device != 0 {
						t.Errorf("dispatch on healthy device %d: %v", r.Device, r.Err)
						return
					}
					counts[r.Device]++
				}
				probeTraffic := pool.HealthStats().Probes - probesBefore
				if int64(counts[0]) != probeTraffic {
					t.Errorf("gray device took %d requests but only %d probes were routed", counts[0], probeTraffic)
				}
			})
			sys.Run()
		})
	}
}

// TestAllDevicesTrippedDegradesOpen: health suspicion alone must never
// refuse all traffic — with every device tripped the balancers fall back
// to any alive device.
func TestAllDevicesTrippedDegradesOpen(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.Health = DefaultHealthPolicy()
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, corpus(1)); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		// Error-trip both devices (errors, not latency: the latency trip is
		// relative to peers and cannot fire on every device at once).
		for i := 0; i < 2; i++ {
			for n := 0; n < healthMinSamples; n++ {
				pool.recordHealth(p, i, "grep", time.Millisecond, false)
			}
			for n := 0; n < 16 && pool.DeviceHealth(i) == HealthHealthy; n++ {
				pool.recordHealth(p, i, "grep", time.Millisecond, true)
			}
			if pool.DeviceHealth(i) == HealthHealthy {
				t.Fatalf("device %d did not trip", i)
			}
		}
		r := pool.Dispatch(p, &RoundRobin{}, tailGrep("books/book000.txt"))
		if r.Err != nil {
			t.Errorf("dispatch with all devices tripped failed: %v", r.Err)
		}
	})
	sys.Run()
}

// --- deadlines at the cluster layer ---

func TestRunTaskDeadlineBeforeDispatch(t *testing.T) {
	sys, pool := newSystem(t, 1)
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, corpus(1)); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		p.Wait(time.Millisecond)
		cmd := tailGrep("books/book000.txt")
		cmd.Deadline = sim.Time(time.Microsecond) // already passed
		r := pool.Dispatch(p, pinned(0), cmd)
		if !errors.Is(r.Err, ErrDeadlineExceeded) {
			t.Errorf("err = %v, want ErrDeadlineExceeded", r.Err)
		}
		if r.Attempts != 0 {
			t.Errorf("pre-lapsed task made %d attempts", r.Attempts)
		}
	})
	sys.Run()
}

func TestRunTaskDeadlineCutsBackoffShort(t *testing.T) {
	sys, pool := newSystem(t, 1)
	pool.Retry.DeadAfter = 0
	pool.Retry.MaxAttempts = 10
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, corpus(1)); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		failingAgent(pool, 0)
		cmd := tailGrep("books/book000.txt")
		// Seven backoffs sum to 25.4ms; the eighth, capped at 20ms, would
		// end past the deadline.
		cmd.Deadline = p.Now().Add(30 * time.Millisecond)
		t0 := p.Now()
		r := pool.Dispatch(p, pinned(0), cmd)
		if !errors.Is(r.Err, ErrDeadlineExceeded) {
			t.Errorf("err = %v, want ErrDeadlineExceeded", r.Err)
		}
		if r.Attempts != 8 {
			t.Errorf("attempts = %d, want 8 (the next backoff would sleep through the deadline)", r.Attempts)
		}
		if waited := p.Now().Sub(t0); waited >= 30*time.Millisecond {
			t.Errorf("task slept %v through its deadline", waited)
		}
	})
	sys.Run()
}
