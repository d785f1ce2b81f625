package serve

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
)

func newSys(t *testing.T, devices int) (*core.System, *cluster.Pool) {
	t.Helper()
	sys := core.NewSystem(core.SystemConfig{
		CompStors: devices,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096,
		},
	})
	return sys, cluster.NewPool(sys.Eng, sys.Devices)
}

var testCorpus = bytes.Repeat([]byte("a line with words in it\n"), 800) // ~19 KB

func grepWorkload() []Workload {
	return []Workload{{
		Weight: 1,
		Cost:   int64(len(testCorpus)),
		Make: func(seq int64) core.Command {
			return core.Command{
				Exec: "grep", Args: []string{"-c", "words", "data.txt"},
				InputFiles: []string{"data.txt"},
			}
		},
	}}
}

// runServing stages the corpus replicated, starts the server, and runs the
// engine to completion. watchdog == 0 disarms the hang guard.
func runServing(t *testing.T, devices int, cfg Config, plan *chaos.Plan, watchdog time.Duration) (*Server, bool) {
	t.Helper()
	sys, pool := newSys(t, devices)
	return serveOn(t, sys, pool, cfg, plan, watchdog)
}

// serveOn is runServing on a system and pool the caller built, for tests
// that set the pool's PerDeviceTasks (the server's dispatch slots per
// device).
func serveOn(t *testing.T, sys *core.System, pool *cluster.Pool, cfg Config, plan *chaos.Plan, watchdog time.Duration) (*Server, bool) {
	t.Helper()
	if plan != nil {
		chaos.Install(sys, plan)
	}
	srv := New(sys.Eng, pool, nil, cfg)
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []cluster.File{{Name: "data.txt", Data: testCorpus}}); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		srv.Start()
	})
	if watchdog > 0 {
		return srv, srv.runWatched(sim.Time(watchdog))
	}
	sys.Run()
	return srv, false
}

func defaultConfig(tenants ...TenantSpec) Config {
	return Config{Seed: 2018, Horizon: time.Second, Tenants: tenants}
}

// checkConservation asserts the request-accounting invariants every run
// must satisfy: arrivals split exactly into admitted+shed, every admitted
// request completed (finished or failed), and nothing is left in flight.
func checkConservation(t *testing.T, srv *Server, tenants ...string) {
	t.Helper()
	if n := srv.Unfinished(); n != 0 {
		t.Fatalf("%d requests still unfinished after drain", n)
	}
	for _, name := range tenants {
		st := srv.Stats(name)
		if st.Arrived != st.Admitted+st.Shed {
			t.Errorf("%s: arrived %d != admitted %d + shed %d", name, st.Arrived, st.Admitted, st.Shed)
		}
		if st.Admitted != st.Finished+st.Failed {
			t.Errorf("%s: admitted %d != finished %d + failed %d", name, st.Admitted, st.Finished, st.Failed)
		}
	}
}

func TestServingCompletes(t *testing.T) {
	inter := TenantSpec{
		Name: "inter", Class: Interactive, Weight: 4,
		Arrival:   Arrival{Kind: Poisson, Rate: 50},
		Workloads: grepWorkload(),
		SLO:       50 * time.Millisecond,
	}
	back := TenantSpec{
		Name: "back", Class: Background, Weight: 1,
		Arrival:   Arrival{Kind: OnOff, Rate: 80, OnMean: 100 * time.Millisecond, OffMean: 100 * time.Millisecond},
		Workloads: grepWorkload(),
	}
	srv, _ := runServing(t, 2, defaultConfig(inter, back), nil, 0)
	checkConservation(t, srv, "inter", "back")
	for _, name := range []string{"inter", "back"} {
		st := srv.Stats(name)
		if st.Arrived == 0 {
			t.Fatalf("%s: no arrivals in a 1s horizon", name)
		}
		if st.Finished == 0 {
			t.Fatalf("%s: nothing finished (failed=%d shed=%d)", name, st.Failed, st.Shed)
		}
	}
	// Every successful grep counts the same staged file.
	want := []byte(fmt.Sprintf("%d\n", bytes.Count(testCorpus, []byte("words"))))
	for _, r := range srv.Results() {
		if r.Err == nil && !bytes.Equal(r.Output, want) {
			t.Fatalf("%s/%d: output %q, want %q", r.Tenant, r.Seq, r.Output, want)
		}
	}
}

// TestInteractivePriority: under a saturating background flood, queued
// interactive requests dispatch first, so their queue wait stays far below
// the background tenant's.
func TestInteractivePriority(t *testing.T) {
	inter := TenantSpec{
		Name: "inter", Class: Interactive, Weight: 4,
		Arrival:   Arrival{Kind: Poisson, Rate: 40},
		Workloads: grepWorkload(),
	}
	back := TenantSpec{
		Name: "back", Class: Background, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 3000},
		Workloads: grepWorkload(),
	}
	cfg := defaultConfig(inter, back)
	// One dispatch slot (~1200 req/s of grep capacity) and a deep backlog
	// allowance: the background queue builds for real, and any interactive
	// arrival must jump it.
	cfg.Limits.MaxQueuedPerTenant = 32
	cfg.Limits.MaxOutstanding = 64
	sys, pool := newSys(t, 1)
	pool.PerDeviceTasks = 1
	srv, _ := serveOn(t, sys, pool, cfg, nil, 0)
	checkConservation(t, srv, "inter", "back")
	is, bs := srv.Stats("inter"), srv.Stats("back")
	if bs.Shed == 0 {
		t.Fatalf("background flood was not saturating (shed=0, admitted=%d)", bs.Admitted)
	}
	im := float64(is.Wait.Sum()) / float64(is.Wait.Count())
	bm := float64(bs.Wait.Sum()) / float64(bs.Wait.Count())
	if im*2 >= bm {
		t.Fatalf("interactive mean wait %.0fns not well below background %.0fns", im, bm)
	}
}

// TestAdmissionSheds: past saturation the queues stay bounded and the
// overflow is shed with the typed error, not queued without limit.
func TestAdmissionSheds(t *testing.T) {
	spec := TenantSpec{
		Name: "flood", Class: Interactive, Weight: 1,
		Arrival:   Arrival{Kind: Poisson, Rate: 2000},
		Workloads: grepWorkload(),
	}
	cfg := defaultConfig(spec)
	cfg.Limits.MaxQueuedPerTenant = 8
	cfg.Limits.MaxOutstanding = 100 // so the queue-depth threshold binds first
	sys, pool := newSys(t, 1)
	pool.PerDeviceTasks = 1
	srv, _ := serveOn(t, sys, pool, cfg, nil, 0)
	checkConservation(t, srv, "flood")
	st := srv.Stats("flood")
	if st.Shed == 0 {
		t.Fatal("no shedding at 2000 req/s on one device")
	}
	if st.ShedBy[ShedQueue] == 0 {
		t.Fatalf("expected queue-depth shedding, got %v", st.ShedBy)
	}
	var shedSeen bool
	for _, r := range srv.Results() {
		if r.Err != nil && errors.Is(r.Err, ErrAdmissionShed) {
			shedSeen = true
			if r.Device != -1 {
				t.Fatalf("shed request reports device %d", r.Device)
			}
		}
	}
	if !shedSeen {
		t.Fatal("no ErrAdmissionShed in results")
	}
}

// resultKey indexes outcomes for cross-run comparison.
type resultKey struct {
	tenant string
	seq    int64
}

func resultMap(srv *Server) map[resultKey]RequestResult {
	m := make(map[resultKey]RequestResult, len(srv.Results()))
	for _, r := range srv.Results() {
		m[resultKey{r.Tenant, r.Seq}] = r
	}
	return m
}

// TestServeDeterminism: two runs with the same seed agree on every
// request's arrival, device, latency, and output bytes.
func TestServeDeterminism(t *testing.T) {
	mk := func() *Server {
		inter := TenantSpec{
			Name: "inter", Class: Interactive, Weight: 4,
			Arrival: Arrival{Kind: Poisson, Rate: 80}, Workloads: grepWorkload(),
		}
		back := TenantSpec{
			Name: "back", Class: Background, Weight: 1,
			Arrival:   Arrival{Kind: OnOff, Rate: 120, OnMean: 50 * time.Millisecond, OffMean: 50 * time.Millisecond},
			Workloads: grepWorkload(),
		}
		srv, _ := runServing(t, 2, defaultConfig(inter, back), nil, 0)
		return srv
	}
	a, b := mk(), mk()
	ra, rb := a.Results(), b.Results()
	if len(ra) != len(rb) {
		t.Fatalf("result counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.Tenant != y.Tenant || x.Seq != y.Seq || x.Device != y.Device ||
			x.Arrived != y.Arrived || x.Finished != y.Finished ||
			!bytes.Equal(x.Output, y.Output) || (x.Err == nil) != (y.Err == nil) {
			t.Fatalf("result %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

// TestArrivalsSplitFromChaosStreams is the RNG-isolation satellite: with
// chaos enabled, every arrival still lands at the identical virtual
// instant with the identical per-tenant sequence — only outcomes may
// move. This holds because serve's streams are split from the seed with
// constants disjoint from the chaos package's.
func TestArrivalsSplitFromChaosStreams(t *testing.T) {
	mk := func(plan *chaos.Plan) *Server {
		inter := TenantSpec{
			Name: "inter", Class: Interactive, Weight: 4,
			Arrival: Arrival{Kind: Poisson, Rate: 100}, Workloads: grepWorkload(),
		}
		back := TenantSpec{
			Name: "back", Class: Background, Weight: 1,
			Arrival:   Arrival{Kind: OnOff, Rate: 150, OnMean: 80 * time.Millisecond, OffMean: 40 * time.Millisecond},
			Workloads: grepWorkload(),
		}
		srv, _ := runServing(t, 2, defaultConfig(inter, back), plan, 0)
		return srv
	}
	quiet := mk(nil)
	// Seed 2018 matches the serving seed on purpose: even a chaos plan
	// seeded identically to the server must not share streams with it.
	noisy := mk(chaos.NewPlan(2018).WithDevice(0, chaos.DeviceFaults{FailSlowFactor: 4, ReadErrProb: 0.02}))

	qm, nm := resultMap(quiet), resultMap(noisy)
	if len(qm) != len(nm) {
		t.Fatalf("arrival counts differ under chaos: %d vs %d", len(qm), len(nm))
	}
	// Compare arrival instants as offsets from Start: chaos slows the
	// staging that precedes Start (shifting the whole run), but must not
	// move a single arrival relative to it.
	for k, q := range qm {
		n, ok := nm[k]
		if !ok {
			t.Fatalf("request %v missing under chaos", k)
		}
		qOff := q.Arrived.Sub(quiet.Started())
		nOff := n.Arrived.Sub(noisy.Started())
		if qOff != nOff {
			t.Fatalf("request %v arrival moved under chaos: %v vs %v after start", k, qOff, nOff)
		}
	}
	for _, name := range []string{"inter", "back"} {
		if qa, na := quiet.Stats(name).Arrived, noisy.Stats(name).Arrived; qa != na {
			t.Fatalf("%s: arrivals %d without chaos, %d with", name, qa, na)
		}
	}
}

// typedErr reports whether err is one of the typed failure modes a serving
// request may legitimately end with.
func typedErr(err error) bool {
	return errors.Is(err, ErrAdmissionShed) ||
		errors.Is(err, cluster.ErrDeviceDead) ||
		errors.Is(err, cluster.ErrMediaFailure) ||
		errors.Is(err, cluster.ErrTaskFailed) ||
		errors.Is(err, cluster.ErrNoDevices) ||
		errors.Is(err, chaos.ErrPowerLost) ||
		errors.Is(err, flash.ErrPowerLoss)
}
