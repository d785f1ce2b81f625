package serve

import (
	"errors"
	"testing"
	"time"

	"compstor/internal/cluster"
	"compstor/internal/sim"
)

// TestDeadlineFastFailsTyped: a tenant deadline rides every request as an
// absolute bound from arrival; a request that cannot make it fails with
// cluster.ErrDeadlineExceeded (never hangs, never retries forever), and the
// accounting still conserves every arrival.
func TestDeadlineFastFailsTyped(t *testing.T) {
	spec := TenantSpec{
		Name: "dl", Class: Interactive, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 200},
		Workloads: grepWorkload(),
		Deadline:  time.Microsecond, // unmeetable: every admitted request lapses
	}
	cfg := defaultConfig(spec)
	cfg.Horizon = 200 * time.Millisecond
	srv, _ := runServing(t, 1, cfg, nil, 0)
	checkConservation(t, srv, "dl")
	st := srv.Stats("dl")
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if st.Failed != st.Admitted {
		t.Fatalf("failed %d of %d admitted; an unmeetable deadline must fail every request", st.Failed, st.Admitted)
	}
	for _, r := range srv.Results() {
		if r.Err != nil && !errors.Is(r.Err, cluster.ErrDeadlineExceeded) {
			t.Fatalf("request %s/%d failed untyped: %v", r.Tenant, r.Seq, r.Err)
		}
	}
}

// TestDeadlineMeetableDoesNotFail: a generous deadline is inert — the same
// workload finishes everything, so the deadline path adds no spurious
// failures.
func TestDeadlineMeetableDoesNotFail(t *testing.T) {
	spec := TenantSpec{
		Name: "dl", Class: Interactive, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 100},
		Workloads: grepWorkload(),
		Deadline:  time.Second,
	}
	cfg := defaultConfig(spec)
	cfg.Horizon = 200 * time.Millisecond
	srv, _ := runServing(t, 2, cfg, nil, 0)
	checkConservation(t, srv, "dl")
	st := srv.Stats("dl")
	if st.Finished == 0 || st.Failed != 0 {
		t.Fatalf("meetable deadline: finished %d, failed %d", st.Finished, st.Failed)
	}
}

// TestBrownoutShedsBackgroundFirst: with half the pool unhealthy, admission
// shrinks the background lane's outstanding budget by twice the capacity
// loss while the interactive lane keeps its proportional share — the
// background tenant sheds on brownout, the interactive tenant barely does.
func TestBrownoutShedsBackgroundFirst(t *testing.T) {
	inter := TenantSpec{
		Name: "inter", Class: Interactive, Weight: 4,
		Arrival:   Arrival{Kind: Poisson, Rate: 400},
		Workloads: grepWorkload(),
	}
	back := TenantSpec{
		Name: "back", Class: Background, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 400},
		Workloads: grepWorkload(),
	}
	cfg := defaultConfig(inter, back)
	cfg.Horizon = 300 * time.Millisecond
	cfg.Limits.MaxOutstanding = 16
	cfg.Limits.MaxQueuedPerTenant = 1 << 20 // queue depth must not bind first

	sys, pool := newSys(t, 2)
	pool.PerDeviceTasks = 2
	pool.Health = cluster.DefaultHealthPolicy()
	srv := New(sys.Eng, pool, nil, cfg)
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []cluster.File{{Name: "data.txt", Data: testCorpus}}); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		// One of two devices out: HealthyFraction 0.5 for the whole run.
		pool.MarkDead(0)
		srv.Start()
	})
	sys.Run()
	checkConservation(t, srv, "inter", "back")

	bs, is := srv.Stats("back"), srv.Stats("inter")
	if bs.ShedBy[ShedBrownout] == 0 {
		t.Fatalf("background tenant shed nothing to brownout: %v", bs.ShedBy)
	}
	bgRate := float64(bs.ShedBy[ShedBrownout]) / float64(bs.Arrived)
	inRate := float64(is.ShedBy[ShedBrownout]) / float64(is.Arrived)
	if inRate >= bgRate {
		t.Fatalf("interactive browned out as hard as background: %.3f vs %.3f", inRate, bgRate)
	}
	if is.Finished == 0 {
		t.Fatal("interactive tenant starved during brownout")
	}
}

// TestBrownoutOffAtFullHealth: with every device healthy the brownout limit
// never binds — no request is shed with the brownout cause.
func TestBrownoutOffAtFullHealth(t *testing.T) {
	spec := TenantSpec{
		Name: "bg", Class: Background, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 400},
		Workloads: grepWorkload(),
	}
	cfg := defaultConfig(spec)
	cfg.Horizon = 200 * time.Millisecond
	cfg.Limits.MaxQueuedPerTenant = 1 << 20
	srv, _ := runServing(t, 2, cfg, nil, 0)
	checkConservation(t, srv, "bg")
	if n := srv.Stats("bg").ShedBy[ShedBrownout]; n != 0 {
		t.Fatalf("%d brownout sheds with a fully healthy pool", n)
	}
}
