// Package serve is an open-loop multi-tenant traffic front-end for a
// CompStor cluster, all on the virtual clock. Tenants are declarative
// specs — an arrival process (Poisson or on/off bursty) with its own split
// RNG stream, a weighted workload mix over the device app registry, a
// priority class, and an optional SLO target. Requests flow through
// per-class start-time fair-queueing lanes (interactive strictly ahead of
// background at dispatch granularity) onto the ISPS cores via
// cluster.Pool, with admission control that sheds load (ErrAdmissionShed)
// when per-tenant queue depth or the global core budget would be exceeded,
// or a gray failure has browned the pool out — bounding queues instead of
// letting latency grow without limit past saturation.
//
// Determinism: each tenant owns two RNG streams (arrival times, workload
// picks) split from the config seed by tenant index, disjoint by
// construction from the chaos package's fault streams. Arrival instants
// and the command sequence therefore do not move when chaos is enabled;
// only queueing, shedding, and completion outcomes respond to the faults.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// ErrAdmissionShed marks a request rejected at admission because a load
// threshold (queue depth, core budget, or brownout) was exceeded.
var ErrAdmissionShed = errors.New("serve: admission shed")

// Shed reasons, recorded per tenant in serve.tenant.<name>.shed_<reason>.
const (
	ShedQueue = "queue" // per-tenant backlog at MaxQueuedPerTenant
	ShedCores = "cores" // global admitted-but-unfinished at MaxOutstanding
	// ShedBrownout sheds when the pool's healthy-capacity estimate has
	// dropped (gray failures quarantined devices) and the admitted load
	// already fills what remains. The background lane browns out first: it
	// absorbs double the capacity loss before the interactive lane sheds at
	// all, so a gray device degrades batch work before user latency.
	ShedBrownout = "brownout"
)

// Class is a tenant's priority lane.
type Class int

const (
	// Interactive requests dispatch strictly before any queued Background
	// request.
	Interactive Class = iota
	// Background requests use capacity interactive tenants leave idle.
	Background
)

func (c Class) String() string {
	if c == Interactive {
		return "interactive"
	}
	return "background"
}

// ArrivalKind selects a tenant's arrival process.
type ArrivalKind int

const (
	// Poisson arrivals: exponential i.i.d. inter-arrival times at Rate.
	Poisson ArrivalKind = iota
	// OnOff arrivals: exponential on/off phases (means OnMean/OffMean);
	// during an on phase arrivals are Poisson at Rate, during off silence.
	OnOff
)

// Arrival describes an open-loop arrival process. Rates are requests per
// second of virtual time.
type Arrival struct {
	Kind    ArrivalKind
	Rate    float64
	OnMean  time.Duration // OnOff only; mean on-phase length
	OffMean time.Duration // OnOff only; mean off-phase length
}

// Workload is one entry of a tenant's mix: picked with probability
// proportional to Weight, it builds the seq-th command of this kind. Cost
// is the request's WFQ cost (any consistent unit — input bytes work well);
// zero means 1.
type Workload struct {
	Weight int
	Cost   int64
	Make   func(seq int64) core.Command
}

// TenantSpec declares one tenant.
type TenantSpec struct {
	Name      string
	Class     Class
	Weight    int // fair-queueing weight within the tenant's lane (min 1)
	Arrival   Arrival
	Workloads []Workload
	// SLO is the per-request latency target (arrival to completion);
	// zero means the tenant has none. Completions above it, and failures,
	// count as violations.
	SLO time.Duration
	// Deadline, when non-zero, is the per-request latency bound measured
	// from arrival: each command carries arrival+Deadline as its absolute
	// deadline, enforced host-side (a request whose deadline lapses while
	// queued fast-fails without dispatching) and device-side (a running
	// task aborts cooperatively, freeing its core and DRAM). Unlike SLO —
	// which only scores — a deadline stops work.
	Deadline time.Duration
}

// Limits are the admission-control thresholds.
type Limits struct {
	// MaxQueuedPerTenant sheds a tenant's arrivals once its own backlog
	// reaches this depth (default 64).
	MaxQueuedPerTenant int
	// MaxOutstanding sheds all arrivals once admitted-but-unfinished
	// requests reach this count (default 4x the dispatch workers, which
	// are the pool's PerDeviceTasks per device).
	MaxOutstanding int
}

// Config assembles a serving run.
type Config struct {
	Seed    int64
	Horizon time.Duration // arrivals stop this long after Start
	Tenants []TenantSpec
	Limits  Limits
}

// timelineWindow is the resolution of each tenant's queue-depth timeline.
const timelineWindow = 10 * time.Millisecond

// RequestResult is the outcome of one arrival, in completion order.
type RequestResult struct {
	Tenant   string
	Seq      int64 // per-tenant arrival sequence
	Device   int   // -1 when never dispatched
	Arrived  sim.Time
	Finished sim.Time
	Latency  time.Duration
	Output   []byte // stdout of a successful completion
	Err      error  // nil, ErrAdmissionShed, or a typed cluster error
}

// TenantStats is a read-out of one tenant's counters and latency
// distributions.
type TenantStats struct {
	Name       string
	Arrived    int64
	Admitted   int64
	Shed       int64
	ShedBy     map[string]int64
	Finished   int64
	Failed     int64
	Violations int64
	// ServedCost is the summed WFQ cost of dispatched requests.
	ServedCost int64
	Latency    *obs.Histogram // arrival to completion
	Wait       *obs.Histogram // arrival to dispatch
}

// Attainment returns the fraction of completed requests that met the SLO
// (1.0 when nothing completed yet).
func (st TenantStats) Attainment() float64 {
	done := st.Finished + st.Failed
	if done == 0 {
		return 1
	}
	return float64(done-st.Violations) / float64(done)
}

// request is one admitted unit of work.
type request struct {
	ts      *tenantState
	seq     int64
	cmd     core.Command
	cost    int64
	arrived sim.Time
}

type tenantState struct {
	spec    tenantSpecNorm
	arrRng  *rand.Rand
	pickRng *rand.Rand

	queued  int
	nextSeq int64

	cArrived    *obs.Counter
	cAdmitted   *obs.Counter
	cShed       *obs.Counter
	shedBy      map[string]*obs.Counter
	cFinished   *obs.Counter
	cFailed     *obs.Counter
	cViolations *obs.Counter
	cLapsed     *obs.Counter // deadlines that lapsed while queued
	hLatency    *obs.Histogram
	hWait       *obs.Histogram
	queueTL     *obs.Timeline
	servedCost  int64
}

// tenantSpecNorm is TenantSpec with defaults applied.
type tenantSpecNorm struct {
	TenantSpec
	weight int
}

// Server runs the tenants against one pool. Create with New, then Start
// from engine context (or before the engine runs); the run is over when
// the engine drains.
type Server struct {
	eng  *sim.Engine
	pool *cluster.Pool
	cfg  Config
	obs  *obs.Obs

	tenants []*tenantState
	lanes   [2]*wfq
	tokens  *sim.Mailbox[struct{}]

	started      sim.Time
	outstanding  int
	arrivalsOpen int
	results      []RequestResult
}

// RNG stream splitting: seed ^ (tenant-index mix) ^ (site constant), with
// a multiplier disjoint from the chaos package's so enabling chaos never
// perturbs arrivals or workload picks.
const (
	serveStreamMix = 0x2545F4914F6CDD1D
	streamArrivals = 0x61727276 // "arrv"
	streamPicks    = 0x7069636B // "pick"
)

// New builds a server over pool. o may be nil (metrics then stay
// internal); pass a scope to land everything under its prefix.
func New(eng *sim.Engine, pool *cluster.Pool, o *obs.Obs, cfg Config) *Server {
	if len(cfg.Tenants) == 0 {
		panic("serve: no tenants")
	}
	if cfg.Horizon <= 0 {
		panic("serve: non-positive horizon")
	}
	if cfg.Limits.MaxQueuedPerTenant <= 0 {
		cfg.Limits.MaxQueuedPerTenant = 64
	}
	if cfg.Limits.MaxOutstanding <= 0 {
		cfg.Limits.MaxOutstanding = 4 * pool.PerDeviceTasks * pool.Size()
	}
	s := &Server{
		eng:    eng,
		pool:   pool,
		cfg:    cfg,
		obs:    o,
		lanes:  [2]*wfq{newWFQ(), newWFQ()},
		tokens: sim.NewMailbox[struct{}](),
	}
	for i, spec := range cfg.Tenants {
		if spec.Name == "" {
			panic("serve: unnamed tenant")
		}
		if len(spec.Workloads) == 0 {
			panic(fmt.Sprintf("serve: tenant %s has no workloads", spec.Name))
		}
		w := max(spec.Weight, 1)
		mix := int64(i+1) * serveStreamMix
		pre := "serve.tenant." + spec.Name + "."
		ts := &tenantState{
			spec:        tenantSpecNorm{TenantSpec: spec, weight: w},
			arrRng:      rand.New(rand.NewSource(cfg.Seed ^ mix ^ streamArrivals)),
			pickRng:     rand.New(rand.NewSource(cfg.Seed ^ mix ^ streamPicks)),
			cArrived:    counterHandle(o, pre+"arrived"),
			cAdmitted:   counterHandle(o, pre+"admitted"),
			cShed:       counterHandle(o, pre+"shed"),
			cFinished:   counterHandle(o, pre+"finished"),
			cFailed:     counterHandle(o, pre+"failed"),
			cViolations: counterHandle(o, pre+"slo_violations"),
			cLapsed:     counterHandle(o, pre+"deadline_lapsed"),
			hLatency:    histHandle(o, pre+"latency"),
			hWait:       histHandle(o, pre+"wait"),
			shedBy: map[string]*obs.Counter{
				ShedQueue:    counterHandle(o, pre+"shed_"+ShedQueue),
				ShedCores:    counterHandle(o, pre+"shed_"+ShedCores),
				ShedBrownout: counterHandle(o, pre+"shed_"+ShedBrownout),
			},
			// Capacity = the shed threshold, so a window's fraction is
			// mean depth over the depth that triggers shedding.
			queueTL: o.Timeline(pre+"queue_depth", timelineWindow, cfg.Limits.MaxQueuedPerTenant),
		}
		s.tenants = append(s.tenants, ts)
	}
	o.CounterFunc("serve.outstanding", func() int64 { return int64(s.outstanding) })
	return s
}

func counterHandle(o *obs.Obs, name string) *obs.Counter {
	if c := o.Counter(name); c != nil {
		return c
	}
	return &obs.Counter{}
}

func histHandle(o *obs.Obs, name string) *obs.Histogram {
	if h := o.Histogram(name); h != nil {
		return h
	}
	return &obs.Histogram{}
}

// Start launches the arrival processes and the dispatch workers. Arrivals
// stop at Start time + Horizon; workers drain the queues and exit, so a
// plain Engine.Run ends the serving run.
func (s *Server) Start() {
	s.started = s.eng.Now()
	s.arrivalsOpen = len(s.tenants)
	for _, ts := range s.tenants {
		s.eng.Go("arrive."+ts.spec.Name, func(p *sim.Proc) {
			s.arrivals(p, ts)
			s.arrivalsOpen--
			if s.arrivalsOpen == 0 {
				s.tokens.Close()
			}
		})
	}
	workers := s.pool.PerDeviceTasks * s.pool.Size()
	for w := 0; w < workers; w++ {
		s.eng.Go(fmt.Sprintf("serve.worker%d", w), s.worker)
	}
}

// Unfinished reports admitted requests not yet completed — the quantity a
// sim-time watchdog checks to prove the run cannot hang.
func (s *Server) Unfinished() int { return s.outstanding }

// Started returns the virtual time Start was called; arrival instants are
// deterministic per seed as offsets from it.
func (s *Server) Started() sim.Time { return s.started }

// Results returns every arrival's outcome in completion order (shed
// requests complete instantly at admission).
func (s *Server) Results() []RequestResult { return s.results }

// Stats reads out one tenant's counters; it panics on an unknown name.
func (s *Server) Stats(name string) TenantStats {
	for _, ts := range s.tenants {
		if ts.spec.Name != name {
			continue
		}
		shedBy := make(map[string]int64, len(ts.shedBy))
		for k, c := range ts.shedBy {
			shedBy[k] = c.Value()
		}
		return TenantStats{
			Name:       name,
			Arrived:    ts.cArrived.Value(),
			Admitted:   ts.cAdmitted.Value(),
			Shed:       ts.cShed.Value(),
			ShedBy:     shedBy,
			Finished:   ts.cFinished.Value(),
			Failed:     ts.cFailed.Value(),
			Violations: ts.cViolations.Value(),
			ServedCost: ts.servedCost,
			Latency:    ts.hLatency,
			Wait:       ts.hWait,
		}
	}
	panic("serve: unknown tenant " + name)
}

// arrivals generates the tenant's arrival process until the horizon.
func (s *Server) arrivals(p *sim.Proc, ts *tenantState) {
	end := s.started.Add(s.cfg.Horizon)
	a := ts.spec.Arrival
	if a.Rate <= 0 {
		return
	}
	switch a.Kind {
	case Poisson:
		for {
			dt := expDuration(ts.arrRng, 1/a.Rate)
			if p.Now().Add(dt) > end {
				return
			}
			p.Wait(dt)
			s.admit(p, ts)
		}
	case OnOff:
		onMean, offMean := a.OnMean, a.OffMean
		if onMean <= 0 {
			onMean = 100 * time.Millisecond
		}
		if offMean <= 0 {
			offMean = 100 * time.Millisecond
		}
		for {
			onEnd := min(p.Now().Add(expDuration(ts.arrRng, onMean.Seconds())), end)
			for {
				dt := expDuration(ts.arrRng, 1/a.Rate)
				if p.Now().Add(dt) > onEnd {
					break
				}
				p.Wait(dt)
				s.admit(p, ts)
			}
			if onEnd >= end {
				return
			}
			p.WaitUntil(onEnd)
			off := expDuration(ts.arrRng, offMean.Seconds())
			if p.Now().Add(off) >= end {
				return
			}
			p.Wait(off)
		}
	default:
		panic(fmt.Sprintf("serve: unknown arrival kind %d", a.Kind))
	}
}

// expDuration draws an exponential duration with the given mean (seconds),
// at least 1ns so arrivals always advance the clock.
func expDuration(rng *rand.Rand, meanSec float64) time.Duration {
	return max(time.Duration(rng.ExpFloat64()*meanSec*1e9), 1)
}

// admit builds the arrival's request and either queues it or sheds it.
// The workload pick is drawn before the admission decision, so the command
// sequence is a pure function of the arrival sequence — shedding (which
// depends on load, and so on chaos) cannot shift later picks.
func (s *Server) admit(p *sim.Proc, ts *tenantState) {
	ts.cArrived.Add(1)
	req := s.buildRequest(p, ts)
	if reason := s.shedReason(ts); reason != "" {
		ts.cShed.Add(1)
		ts.shedBy[reason].Add(1)
		s.obs.Instant(p, "serve", "shed", "tenant", ts.spec.Name, "reason", reason)
		s.results = append(s.results, RequestResult{
			Tenant: ts.spec.Name, Seq: req.seq, Device: -1,
			Arrived: req.arrived, Finished: req.arrived,
			Err: fmt.Errorf("%w: tenant %s: %s", ErrAdmissionShed, ts.spec.Name, reason),
		})
		return
	}
	ts.cAdmitted.Add(1)
	s.outstanding++
	ts.queued++
	s.lanes[ts.spec.Class].push(ts.spec.Name, ts.spec.weight, req.cost, req)
	s.tokens.Put(struct{}{})
}

func (s *Server) buildRequest(p *sim.Proc, ts *tenantState) *request {
	total := 0
	for _, w := range ts.spec.Workloads {
		total += max(w.Weight, 1)
	}
	pick := ts.pickRng.Intn(total)
	var chosen Workload
	for _, w := range ts.spec.Workloads {
		wt := max(w.Weight, 1)
		if pick < wt {
			chosen = w
			break
		}
		pick -= wt
	}
	seq := ts.nextSeq
	ts.nextSeq++
	cmd := chosen.Make(seq)
	cost := max(chosen.Cost, 1)
	if d := ts.spec.Deadline; d > 0 {
		cmd.Deadline = p.Now().Add(d)
	}
	return &request{ts: ts, seq: seq, cmd: cmd, cost: cost, arrived: p.Now()}
}

// shedReason returns the admission-control reason to reject, or "".
func (s *Server) shedReason(ts *tenantState) string {
	if ts.queued >= s.cfg.Limits.MaxQueuedPerTenant {
		return ShedQueue
	}
	if s.outstanding >= s.cfg.Limits.MaxOutstanding {
		return ShedCores
	}
	if limit := s.brownoutLimit(ts.spec.Class); limit < s.cfg.Limits.MaxOutstanding && s.outstanding >= limit {
		return ShedBrownout
	}
	return ""
}

// brownoutLimit scales the outstanding budget by the pool's healthy
// fraction. Interactive keeps ceil(MaxOutstanding × frac); background gives
// up twice the capacity loss, so it empties first. Both floor at one
// device's worth of workers — brownout degrades, it never blacks out.
func (s *Server) brownoutLimit(c Class) int {
	frac := s.pool.HealthyFraction()
	top := s.cfg.Limits.MaxOutstanding
	if frac >= 1 {
		return top
	}
	floor := s.pool.PerDeviceTasks
	eff := max(int(math.Ceil(float64(top)*frac)), floor)
	if c == Interactive {
		return eff
	}
	return max(top-2*(top-eff), floor)
}

// nextRequest pops the highest-priority queued request: the interactive
// lane strictly before background — this is the dispatch-granularity
// preemption, a queued interactive grep always beats a queued background
// compression.
func (s *Server) nextRequest() *request {
	if r := s.lanes[Interactive].pop(); r != nil {
		return r
	}
	if r := s.lanes[Background].pop(); r != nil {
		return r
	}
	panic("serve: token with no queued request")
}

// worker is one dispatch slot: it waits for an admitted request, picks a
// device, runs the minion through the pool's retry path, and records the
// outcome. Workers exit when arrivals are done and the queues drain.
func (s *Server) worker(p *sim.Proc) {
	for {
		if _, ok := s.tokens.Recv(p); !ok {
			return
		}
		req := s.nextRequest()
		ts := req.ts
		ts.queued--
		wait := p.Now().Sub(req.arrived)
		ts.hWait.Observe(wait)
		if ts.queueTL != nil && wait > 0 {
			ts.queueTL.Add(req.arrived, wait)
		}
		if dl := req.cmd.Deadline; dl > 0 && p.Now() >= dl {
			// The deadline lapsed while the request sat queued: fail it
			// typed, without spending a dispatch slot or a device core on a
			// race the clock already decided.
			ts.cLapsed.Add(1)
			s.obs.Instant(p, "serve", "deadline_lapsed", "tenant", ts.spec.Name)
			s.finish(p, req, -1, nil, fmt.Errorf("%w: lapsed in queue", cluster.ErrDeadlineExceeded))
			continue
		}
		dev, err := cluster.LeastOutstanding{}.Pick(p, s.pool)
		if err != nil {
			s.finish(p, req, -1, nil, err)
			continue
		}
		// RunHedged degrades to the plain retry path while the pool's hedge
		// policy is off or its latency quantile is warming up.
		resp, _, err := s.pool.RunHedged(p, dev, req.cmd)
		s.finish(p, req, dev, resp, err)
	}
}

// finish records one dispatched request's outcome and releases its
// outstanding slot.
func (s *Server) finish(p *sim.Proc, req *request, dev int, resp *core.Response, err error) {
	ts := req.ts
	s.outstanding--
	ts.servedCost += req.cost
	lat := p.Now().Sub(req.arrived)
	ts.hLatency.Observe(lat)
	var out []byte
	if err != nil {
		ts.cFailed.Add(1)
	} else {
		ts.cFinished.Add(1)
		out = resp.Stdout
	}
	if err != nil || (ts.spec.SLO > 0 && lat > ts.spec.SLO) {
		ts.cViolations.Add(1)
		s.obs.Instant(p, "serve", "slo_violation",
			"tenant", ts.spec.Name, "latency", lat.String())
	}
	s.results = append(s.results, RequestResult{
		Tenant: ts.spec.Name, Seq: req.seq, Device: dev,
		Arrived: req.arrived, Finished: p.Now(), Latency: lat,
		Output: out, Err: err,
	})
}
