// Package cluster orchestrates many CompStor devices from one host client:
// size-balanced file sharding, parallel staging, scatter/gather minion
// execution, and load balancing on the host's own in-flight counts — the
// paper's "thousands of concurrent minions ... heavy parallelism at the
// storage unit level". One request path (runTask, reached through Dispatch
// or RunHedged) and one fan-out (fanOut) carry all of it.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"compstor/internal/core"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// Fault-tolerance errors.
var (
	// ErrDeviceDead marks tasks abandoned because their device was declared
	// dead (too many consecutive transport failures), including a task
	// that failed on a device declared dead while it ran.
	ErrDeviceDead = errors.New("cluster: device marked dead")
	// ErrNoDevices is returned when every device in the pool has died.
	ErrNoDevices = errors.New("cluster: no alive devices")
	// ErrTaskFailed marks an application-level failure: the device answered
	// and the task reported a non-OK status. Final under MapFilesFT — a
	// working device reporting a task failure is not a dying device, and
	// re-dispatching would recompute the same answer.
	ErrTaskFailed = errors.New("cluster: task failed")
	// ErrMediaFailure marks a task failure the device itself blamed on its
	// media (CRC-detected corruption, power loss mid-task). Unlike
	// ErrTaskFailed it is transport-class: it strikes the device and
	// MapFilesFT re-dispatches the shard elsewhere, because the same task
	// can succeed on a healthy replica.
	ErrMediaFailure = errors.New("cluster: device media failure")
	// ErrDeadlineExceeded marks a task abandoned because its deadline
	// passed — before dispatch, between retries, or device-side mid-run.
	// Final: the device is healthy (no strike) and retrying cannot win a
	// race the clock already decided.
	ErrDeadlineExceeded = errors.New("cluster: deadline exceeded")
	// ErrCanceled marks a task abandoned because its cancel token fired —
	// typically the losing twin of a hedged request. Final, never a strike.
	ErrCanceled = errors.New("cluster: task canceled")
	// ErrRetryBudgetExhausted marks a retry denied by the pool's retry
	// budget: the task fast-fails with its last underlying error wrapped,
	// shedding load instead of amplifying a retry storm.
	ErrRetryBudgetExhausted = errors.New("cluster: retry budget exhausted")
)

// RetryPolicy governs per-task retry and device-death marking. Backoff
// delays are virtual (simulated) time.
type RetryPolicy struct {
	// MaxAttempts bounds tries per task on one device (≥1).
	MaxAttempts int
	// DeadAfter marks a device dead after this many consecutive
	// transport-level failures (no response came back at all). App-level
	// failures — a response arrived with a non-OK status — are retried but
	// never strike the device: its control plane demonstrably works.
	DeadAfter int
	// Jitter applies seeded full jitter to backoff delays: each wait is
	// drawn uniformly from (0, d] where d is the exponential schedule's
	// delay. Correlated failures then cannot synchronise their retries into
	// waves. Requires Pool.SetSeed for a deterministic stream; without a
	// seed the schedule stays deterministic (jitter silently off).
	Jitter bool
}

// The retry schedule: exponential backoff in sim-time, from baseBackoff
// before the first retry, doubling per attempt up to maxBackoff.
const (
	baseBackoff = 200 * time.Microsecond
	maxBackoff  = 20 * time.Millisecond
)

// backoff returns the delay after the attempt-th failure (1-based).
func backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// File is one named payload to distribute.
type File struct {
	Name string
	Data []byte
}

// Pool drives a set of CompStor units.
type Pool struct {
	eng   *sim.Engine
	units []*core.DeviceUnit
	ids   []int // 0..len(units)-1: the device list the whole-pool fan-outs slice
	// PerDeviceTasks bounds concurrent minions per device (default: 4, one
	// per ISPS core).
	PerDeviceTasks int
	// Retry is the fault-tolerance policy every task runs under (default:
	// 3 attempts, death after 6 consecutive transport failures).
	Retry RetryPolicy
	// Hedge configures hedged dispatch via RunHedged (default off).
	Hedge HedgePolicy
	// Health configures gray-failure scoring and circuit breaking
	// (default off — the PR 1 binary dead/alive model).
	Health HealthPolicy
	// Budget configures the pool-wide retry token bucket (default off —
	// unbounded per-task retries).
	Budget RetryBudgetPolicy

	dead     []bool
	strikes  []int // consecutive transport failures per device
	inflight []int // tasks dispatched to each device and not yet finished

	health       []deviceHealth
	budgetTokens float64       // retry budget bucket; starts full
	latencies    obs.Histogram // successful-task latency, feeds the hedge delay
	rng          *rand.Rand    // backoff jitter stream; nil until SetSeed

	obs           *obs.Obs
	cAttempts     *obs.Counter
	cRetries      *obs.Counter
	cStrikes      *obs.Counter
	cDeaths       *obs.Counter
	cRevives      *obs.Counter
	cFailovers    *obs.Counter // failover rounds triggered by re-queued files
	cRequeued     *obs.Counter // files re-dispatched to a surviving device
	cHedgeIssued  *obs.Counter // secondaries launched
	cHedgeWon     *obs.Counter // races won by the secondary
	cHedgeWasted  *obs.Counter // secondaries beaten by the primary
	cQuarantines  *obs.Counter // health trips into quarantine
	cReadmits     *obs.Counter // probation devices readmitted
	cProbes       *obs.Counter // probe requests routed to probation devices
	cBudgetDenied *obs.Counter // retries refused by the retry budget
	cDeadlineHits *obs.Counter // tasks abandoned to their deadline
}

// NewPool wraps device units for orchestration.
func NewPool(eng *sim.Engine, units []*core.DeviceUnit) *Pool {
	if len(units) == 0 {
		panic("cluster: empty pool")
	}
	ids := make([]int, len(units))
	for i := range ids {
		ids[i] = i
	}
	return &Pool{
		eng:            eng,
		units:          units,
		ids:            ids,
		PerDeviceTasks: 4,
		Retry:          RetryPolicy{MaxAttempts: 3, DeadAfter: 6},
		dead:           make([]bool, len(units)),
		strikes:        make([]int, len(units)),
		inflight:       make([]int, len(units)),
		health:         make([]deviceHealth, len(units)),
		budgetTokens:   budgetCapacity,
		// Tail-tolerance counters are pool-owned (allocated eagerly) so
		// HedgeStats and tests read them even without obs attached.
		cHedgeIssued:  &obs.Counter{},
		cHedgeWon:     &obs.Counter{},
		cHedgeWasted:  &obs.Counter{},
		cQuarantines:  &obs.Counter{},
		cReadmits:     &obs.Counter{},
		cProbes:       &obs.Counter{},
		cBudgetDenied: &obs.Counter{},
		cDeadlineHits: &obs.Counter{},
	}
}

// SetSeed arms the pool's private RNG stream (split from the given seed
// with a pool-specific mixing constant) used for backoff jitter. Two pools
// seeded identically produce identical jitter traces — determinism per
// seed, like every other randomised layer in the simulator.
func (pl *Pool) SetSeed(seed int64) {
	pl.rng = rand.New(rand.NewSource(seed ^ 0x6C62272E07BB0142))
}

// SetObs attaches fault-tolerance counters and trace instants. Counters
// land under the cluster.* prefix of o; retry, strike, death, and failover
// moments become trace instants on the "cluster" track, causally positioned
// against the chaos faults that provoked them. All obs methods are
// nil-safe, so an uninstrumented pool pays nothing.
func (pl *Pool) SetObs(o *obs.Obs) {
	pl.obs = o
	pl.cAttempts = o.Counter("cluster.task_attempts")
	pl.cRetries = o.Counter("cluster.retries")
	pl.cStrikes = o.Counter("cluster.strikes")
	pl.cDeaths = o.Counter("cluster.deaths")
	pl.cRevives = o.Counter("cluster.revives")
	pl.cFailovers = o.Counter("cluster.failover_rounds")
	pl.cRequeued = o.Counter("cluster.requeued_files")
	o.CounterFunc("cluster.hedge.issued", pl.cHedgeIssued.Value)
	o.CounterFunc("cluster.hedge.won", pl.cHedgeWon.Value)
	o.CounterFunc("cluster.hedge.wasted", pl.cHedgeWasted.Value)
	o.CounterFunc("cluster.health.quarantines", pl.cQuarantines.Value)
	o.CounterFunc("cluster.health.readmits", pl.cReadmits.Value)
	o.CounterFunc("cluster.health.probes", pl.cProbes.Value)
	o.CounterFunc("cluster.retry_budget.denied", pl.cBudgetDenied.Value)
	o.CounterFunc("cluster.deadline_exceeded", pl.cDeadlineHits.Value)
	// Live queue depth, pulled at snapshot time: the same signal the
	// LeastOutstanding balancer and the serve-layer admission read, so a
	// mid-run snapshot shows exactly what the scheduler saw.
	for i := range pl.units {
		o.CounterFunc(fmt.Sprintf("cluster.dev%d.inflight", i), func() int64 { return int64(pl.inflight[i]) })
	}
	o.CounterFunc("cluster.inflight", func() int64 { return int64(pl.TotalInFlight()) })
}

// TotalInFlight sums the live in-flight count over every device.
func (pl *Pool) TotalInFlight() int {
	var n int
	for _, v := range pl.inflight {
		n += v
	}
	return n
}

// Size returns the number of devices.
func (pl *Pool) Size() int { return len(pl.units) }

// Unit returns the i-th device unit.
func (pl *Pool) Unit(i int) *core.DeviceUnit { return pl.units[i] }

// IsDead reports whether device i has been marked dead.
func (pl *Pool) IsDead(i int) bool { return pl.dead[i] }

// alive is !IsDead, in the shape the balancers' eligibility filters take.
func (pl *Pool) alive(i int) bool { return !pl.dead[i] }

// MarkDead declares device i failed; schedulers stop routing work to it.
func (pl *Pool) MarkDead(i int) { pl.dead[i] = true }

// Revive returns device i to service after it recovered — powered back on
// and remounted (ssd.SSD.Remount), its acknowledged state intact. Strikes
// are forgiven; schedulers may route new work to it immediately.
func (pl *Pool) Revive(i int) {
	if pl.dead[i] {
		pl.cRevives.Add(1)
	}
	pl.dead[i] = false
	pl.strikes[i] = 0
}

// DeadDevices returns the indices of devices declared dead, in order — the
// degraded-mode record experiments report alongside throughput.
func (pl *Pool) DeadDevices() []int {
	var out []int
	for i, d := range pl.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Alive returns the indices of devices still accepting work.
func (pl *Pool) Alive() []int {
	var out []int
	for i, d := range pl.dead {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// strike records a transport-level failure on device i and declares it dead
// once DeadAfter consecutive failures accumulate.
func (pl *Pool) strike(p *sim.Proc, i int) {
	pl.strikes[i]++
	pl.cStrikes.Add(1)
	if pl.Retry.DeadAfter > 0 && pl.strikes[i] >= pl.Retry.DeadAfter && !pl.dead[i] {
		pl.declareDead(p, i)
	}
}

// declareDead takes device i out of service on the pool's own evidence —
// DeadAfter strikes in a row, or a shard it could not absorb. Unlike the
// operator's MarkDead the verdict is counted and traced.
func (pl *Pool) declareDead(p *sim.Proc, i int) {
	pl.dead[i] = true
	pl.cDeaths.Add(1)
	pl.obs.Instant(p, "cluster", "device_dead", "device", fmt.Sprint(i))
}

// clearStrikes resets device i's consecutive-failure counter after any
// successful round trip.
func (pl *Pool) clearStrikes(i int) { pl.strikes[i] = 0 }

// maxAttempts returns the per-device attempt bound (at least 1).
func (pl *Pool) maxAttempts() int {
	if pl.Retry.MaxAttempts < 1 {
		return 1
	}
	return pl.Retry.MaxAttempts
}

// backoffDelay returns the wait before the next retry: the exponential
// schedule, with seeded full jitter applied when armed (Retry.Jitter set
// and SetSeed called) — each delay draws uniformly from (0, d].
func (pl *Pool) backoffDelay(attempt int) time.Duration {
	d := backoff(attempt)
	if !pl.Retry.Jitter || pl.rng == nil || d <= 0 {
		return d
	}
	return time.Duration(pl.rng.Int63n(int64(d))) + 1
}

// runTask is the pool's one attempt loop — Dispatch, RunHedged's legs and
// the map fan-out all end here. It executes one minion on device dev with
// per-task retry and exponential backoff in sim-time. It returns the last
// response (which may be non-OK), the number of attempts made, and the
// final error: nil on success, the transport or status error otherwise.
// Transport failures strike the device; once it is marked dead remaining
// attempts are abandoned. A deadline on the command is enforced host-side
// too: no attempt starts, and no backoff is taken, past the deadline.
// Deadline and cancellation outcomes are final — the device is healthy, so
// they neither strike nor retry.
func (pl *Pool) runTask(p *sim.Proc, dev int, cmd core.Command) (*core.Response, int, error) {
	var (
		lastResp *core.Response
		lastErr  error
		attempts int
	)
	// The in-flight count covers the whole task lifetime including retries
	// and backoff waits: a device mid-backoff still owns the work.
	pl.inflight[dev]++
	defer func() { pl.inflight[dev]-- }()
	for attempts < pl.maxAttempts() {
		if pl.dead[dev] {
			if lastErr == nil {
				lastErr = ErrDeviceDead
			}
			break
		}
		if cmd.Cancel.Canceled() {
			pl.recordNeutral(dev)
			lastErr = fmt.Errorf("%w: device %d", ErrCanceled, dev)
			break
		}
		if cmd.Deadline > 0 && p.Now() >= cmd.Deadline {
			pl.cDeadlineHits.Add(1)
			pl.recordNeutral(dev)
			lastErr = fmt.Errorf("%w: device %d", ErrDeadlineExceeded, dev)
			break
		}
		if attempts > 0 {
			// Retries (not first attempts) are charged to the retry budget:
			// a dry bucket turns a would-be retry storm into a typed
			// fast-fail that sheds the work.
			if !pl.budgetTake() {
				pl.cBudgetDenied.Add(1)
				pl.obs.Instant(p, "cluster", "retry_denied", "device", fmt.Sprint(dev))
				lastErr = fmt.Errorf("%w: %w", ErrRetryBudgetExhausted, lastErr)
				break
			}
			pl.cRetries.Add(1)
			pl.obs.Instant(p, "cluster", "retry", "device", fmt.Sprint(dev), "attempt", fmt.Sprint(attempts+1))
		}
		attempts++
		pl.cAttempts.Add(1)
		start := p.Now()
		resp, err := pl.units[dev].Client.Run(p, cmd)
		lat := p.Now().Sub(start)
		switch {
		case err == nil && resp.Status == core.StatusOK:
			pl.clearStrikes(dev)
			pl.budgetRefill()
			pl.noteLatency(lat)
			pl.recordHealth(p, dev, cmd.Exec, lat, false)
			return resp, attempts, nil
		case err == nil && resp.Status == core.StatusDeadline:
			// The device answered: it abandoned the task because the clock
			// ran out. Healthy device, unwinnable race — final.
			pl.clearStrikes(dev)
			pl.recordHealth(p, dev, cmd.Exec, lat, false)
			pl.cDeadlineHits.Add(1)
			return resp, attempts, fmt.Errorf("%w: device %d", ErrDeadlineExceeded, dev)
		case err == nil && resp.Status == core.StatusCanceled:
			// The host revoked the request (hedge loser); final. The outcome
			// scores nothing, but a probe ending canceled must release its
			// probe slot.
			pl.clearStrikes(dev)
			pl.recordNeutral(dev)
			return resp, attempts, fmt.Errorf("%w: device %d", ErrCanceled, dev)
		case err == nil && resp.Retryable:
			// The device answered but blamed its media (CRC-detected
			// corruption, power loss mid-task). That is a sick device, not a
			// bad task: strike it and keep the error transport-class so the
			// scheduler re-dispatches the work elsewhere.
			lastResp = resp
			lastErr = fmt.Errorf("%w: device %d: %s", ErrMediaFailure, dev, resp.Error)
			pl.recordHealth(p, dev, cmd.Exec, lat, true)
			pl.strike(p, dev)
		case err == nil:
			lastResp = resp
			pl.clearStrikes(dev)
			// An application error says nothing about the device — latency
			// still folds into its score, the failure does not.
			pl.recordHealth(p, dev, cmd.Exec, lat, false)
			lastErr = fmt.Errorf("%w: device %d: %s: %s", ErrTaskFailed, dev, resp.Status, resp.Error)
		default:
			lastErr = err
			pl.recordHealth(p, dev, cmd.Exec, lat, true)
			pl.strike(p, dev)
		}
		if pl.dead[dev] || attempts >= pl.maxAttempts() {
			break
		}
		delay := pl.backoffDelay(attempts)
		if cmd.Deadline > 0 && p.Now().Add(delay) >= cmd.Deadline {
			// Backing off would sleep through the deadline; fail now.
			pl.cDeadlineHits.Add(1)
			pl.recordNeutral(dev)
			lastErr = fmt.Errorf("%w: %w", ErrDeadlineExceeded, lastErr)
			break
		}
		p.Wait(delay)
	}
	if pl.dead[dev] && errors.Is(lastErr, ErrTaskFailed) {
		// Other workers' strikes declared the device dead under this task:
		// its failure is the device's, not the task's, so it is
		// device-class and MapFilesFT re-dispatches the work.
		lastErr = fmt.Errorf("%w: device %d: %v", ErrDeviceDead, dev, lastErr)
	}
	return lastResp, attempts, lastErr
}

// Shard splits files into n size-balanced groups (longest-processing-time
// greedy): sort by size descending, always assign to the lightest shard.
func Shard(files []File, n int) [][]File {
	if n <= 0 {
		panic("cluster: non-positive shard count")
	}
	sorted := append([]File(nil), files...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i].Data) > len(sorted[j].Data) })
	shards := make([][]File, n)
	loads := make([]int64, n)
	for _, f := range sorted {
		min := 0
		for i := 1; i < n; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		shards[min] = append(shards[min], f)
		loads[min] += int64(len(f.Data))
	}
	return shards
}

// stageOn writes files onto one device through its client view and flushes
// them durable. It returns the staged names; an error means the device
// could not accept the shard.
func (pl *Pool) stageOn(p *sim.Proc, dev int, files []File) ([]string, error) {
	view := pl.units[dev].Client.FS()
	var names []string
	for _, f := range files {
		if err := view.WriteFile(p, f.Name, f.Data); err != nil {
			return nil, fmt.Errorf("device %d: %s: %w", dev, f.Name, err)
		}
		names = append(names, f.Name)
	}
	if err := view.Flush(p); err != nil {
		return nil, fmt.Errorf("device %d: flush: %w", dev, err)
	}
	return names, nil
}

// fanOut runs fn once per listed device, each in its own process named
// label<device>, and blocks p until all of them return. fn receives the
// position in devs and the device there. Staging, replication, the map
// phase and every failover round fan out through here.
func (pl *Pool) fanOut(p *sim.Proc, label string, devs []int, fn func(sp *sim.Proc, i, dev int)) {
	p.Fork(len(devs), func(i int) string { return fmt.Sprintf("%s%d", label, devs[i]) },
		func(sp *sim.Proc, i int) { fn(sp, i, devs[i]) })
}

// Stage writes shard i's files onto device i, all devices in parallel,
// returning the per-device file-name lists. The caller's process blocks
// until every device is staged.
func (pl *Pool) Stage(p *sim.Proc, shards [][]File) ([][]string, error) {
	if len(shards) > len(pl.units) {
		return nil, fmt.Errorf("cluster: %d shards for %d devices", len(shards), len(pl.units))
	}
	names := make([][]string, len(shards))
	errs := make([]error, len(shards))
	pl.fanOut(p, "stage", pl.ids[:len(shards)], func(sp *sim.Proc, i, dev int) {
		names[i], errs[i] = pl.stageOn(sp, dev, shards[i])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return names, nil
}

// StageReplicated writes every file onto every alive device in parallel
// and flushes each durable, so any device can serve any request — the
// replication mode a serving front-end needs when requests are balanced
// at dispatch time rather than sharded at staging time.
func (pl *Pool) StageReplicated(p *sim.Proc, files []File) error {
	alive := pl.Alive()
	if len(alive) == 0 {
		return ErrNoDevices
	}
	errs := make([]error, len(alive))
	pl.fanOut(p, "repstage", alive, func(sp *sim.Proc, i, dev int) {
		_, errs[i] = pl.stageOn(sp, dev, files)
	})
	return firstError(errs)
}

// firstError returns the lowest-positioned non-nil error, or nil.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TaskResult pairs a finished minion with its origin.
type TaskResult struct {
	Device int
	Name   string
	Resp   *core.Response
	Err    error
	// Attempts counts every try made for this task, across retries and —
	// under MapFilesFT — across re-dispatches to other devices.
	Attempts int
}

// mapOn runs makeCmd over files on one device with up to PerDeviceTasks
// concurrent minions, blocking the calling process until all complete.
func (pl *Pool) mapOn(p *sim.Proc, dev int, files []string, makeCmd func(name string) core.Command) []TaskResult {
	if len(files) == 0 {
		return nil
	}
	workers := pl.PerDeviceTasks
	if workers < 1 {
		// A zero or negative budget must degrade to serial dispatch, not
		// silently map zero files.
		workers = 1
	}
	workers = min(workers, len(files))
	results := make([]TaskResult, len(files))
	p.Fork(workers, func(w int) string { return fmt.Sprintf("map%d.%d", dev, w) }, func(sp *sim.Proc, w int) {
		// The stride is the captured worker count: a mutation of
		// PerDeviceTasks mid-run must not change which files this worker
		// visits (it would skip or duplicate work).
		for fi := w; fi < len(files); fi += workers {
			name := files[fi]
			resp, attempts, err := pl.runTask(sp, dev, makeCmd(name))
			results[fi] = TaskResult{
				Device: dev, Name: name, Resp: resp, Err: err, Attempts: attempts,
			}
		}
	})
	return results
}

// MapFiles runs makeCmd over every staged file, fanning out across devices
// and, within each device, up to PerDeviceTasks concurrent minions. Each
// task retries per the pool's RetryPolicy; tasks whose device dies are
// returned with Err set (use MapFilesFT to re-dispatch them instead). It
// gathers all results before returning, ordered by device then by file.
func (pl *Pool) MapFiles(p *sim.Proc, staged [][]string, makeCmd func(name string) core.Command) []TaskResult {
	return pl.mapDevices(p, pl.ids[:len(staged)], staged, makeCmd)
}

// mapDevices is the gather under MapFiles and under every MapFilesFT round:
// staged[i] runs on device devs[i].
func (pl *Pool) mapDevices(p *sim.Proc, devs []int, staged [][]string, makeCmd func(name string) core.Command) []TaskResult {
	perDev := make([][]TaskResult, len(devs))
	pl.fanOut(p, "mapdev", devs, func(sp *sim.Proc, i, dev int) {
		perDev[i] = pl.mapOn(sp, dev, staged[i], makeCmd)
	})
	var results []TaskResult
	for _, rs := range perDev {
		results = append(results, rs...)
	}
	return results
}

// MapFilesFT is the fault-tolerant scatter/gather: it shards files over the
// alive devices, stages, and maps, and when a device dies mid-run (staging
// failure, or DeadAfter consecutive transport failures) it re-shards that
// device's unfinished files over the survivors and repeats. The host
// retains the file bytes, so failover needs no data from the dead device.
// It returns one result per file; a task that failed on a healthy device
// (an application error) is final and is not re-dispatched. The error is
// ErrNoDevices when every device died with files still unfinished. With no
// fault a call is exactly Stage followed by MapFiles.
func (pl *Pool) MapFilesFT(p *sim.Proc, files []File, makeCmd func(name string) core.Command) ([]TaskResult, error) {
	results := make([]TaskResult, 0, len(files))
	attempts := make(map[string]int, len(files))
	pending := append([]File(nil), files...)
	for len(pending) > 0 {
		alive := pl.Alive()
		if len(alive) == 0 {
			for _, f := range pending {
				results = append(results, TaskResult{
					Device: -1, Name: f.Name, Err: ErrNoDevices, Attempts: attempts[f.Name],
				})
			}
			return results, ErrNoDevices
		}

		// Scatter over the survivors: shard i of this round lands on device
		// alive[i].
		shards := Shard(pending, len(alive))
		staged := make([][]string, len(alive))
		pl.fanOut(p, "stage", alive, func(sp *sim.Proc, i, dev int) {
			// Staging retries like tasks do: a transient write fault only
			// costs a rewrite. A device that cannot absorb its shard after
			// MaxAttempts is out of the round; its files go back to pending.
			for attempt := 1; ; attempt++ {
				names, err := pl.stageOn(sp, dev, shards[i])
				if err == nil {
					staged[i] = names
					return
				}
				if attempt >= pl.maxAttempts() {
					pl.declareDead(sp, dev)
					return
				}
				sp.Wait(pl.backoffDelay(attempt))
			}
		})

		byName := make(map[string]File, len(pending))
		for _, f := range pending {
			byName[f.Name] = f
		}
		var requeue []File
		for i, shard := range shards {
			if staged[i] == nil && len(shard) > 0 {
				requeue = append(requeue, shard...)
			}
		}

		// Gather, re-queueing only the files stranded by a device death.
		for _, r := range pl.mapDevices(p, alive, staged, makeCmd) {
			attempts[r.Name] += r.Attempts
			// Transport-level failures are never final while survivors
			// exist: the device may be dead in fact long before it
			// accumulates enough strikes to be dead on record, and the
			// host still holds the bytes. Only an application-level
			// failure (the device answered, the task said no) is final.
			if r.Err != nil && !errors.Is(r.Err, ErrTaskFailed) {
				requeue = append(requeue, byName[r.Name])
				continue
			}
			r.Attempts = attempts[r.Name]
			results = append(results, r)
		}
		if len(requeue) > 0 {
			pl.cFailovers.Add(1)
			pl.cRequeued.Add(int64(len(requeue)))
			pl.obs.Instant(p, "cluster", "failover", "files", fmt.Sprint(len(requeue)))
		}
		if len(requeue) >= len(pending) && len(pl.Alive()) == len(alive) {
			// No progress and nobody died: re-dispatching the same files to
			// the same devices cannot converge.
			return results, fmt.Errorf("cluster: failover made no progress on %d files", len(requeue))
		}
		pending = requeue
	}
	return results, nil
}

// Balancer picks a device for the next task.
type Balancer interface {
	Pick(p *sim.Proc, pool *Pool) (int, error)
}

// RoundRobin cycles through devices, skipping any marked dead and — with
// health scoring on — any quarantined or probation device (probation
// devices receive only single probe requests, routed first).
type RoundRobin struct{ next int }

// Pick implements Balancer.
func (rr *RoundRobin) Pick(p *sim.Proc, pool *Pool) (int, error) {
	if i, ok := pool.probePick(); ok {
		return i, nil
	}
	// One lap over the healthy devices; if every one is tripped, a second
	// over the merely alive — degrade rather than refuse all traffic on
	// health suspicion alone.
	for _, eligible := range []func(int) bool{pool.routable, pool.alive} {
		for tries := 0; tries < pool.Size(); tries++ {
			i := rr.next % pool.Size()
			rr.next++
			if eligible(i) {
				return i, nil
			}
		}
	}
	return 0, ErrNoDevices
}

// LeastOutstanding picks the alive device with the fewest in-flight tasks
// as counted on the host side (Pool.InFlight), ties to the lowest index.
// It needs no status-query round trip, so the signal can never be stale: a
// burst of picks in the same instant spreads evenly because each dispatch
// bumps the count the next pick reads. This is the same signal the serve
// layer's admission control reads.
type LeastOutstanding struct{}

// Pick implements Balancer. Like RoundRobin it routes probe traffic to
// probation devices first and otherwise considers only healthy, alive
// devices, degrading to any alive device when every one is tripped.
func (LeastOutstanding) Pick(p *sim.Proc, pool *Pool) (int, error) {
	if i, ok := pool.probePick(); ok {
		return i, nil
	}
	best := pool.leastLoaded(pool.routable)
	if best < 0 {
		best = pool.leastLoaded(pool.alive)
	}
	if best < 0 {
		return 0, ErrNoDevices
	}
	return best, nil
}

// leastLoaded returns the eligible device with the fewest in-flight tasks,
// ties to the lowest index, or -1 when no device is eligible.
func (pl *Pool) leastLoaded(eligible func(i int) bool) int {
	best, bestLoad := -1, 1<<30
	for i := range pl.units {
		if !eligible(i) {
			continue
		}
		if load := pl.inflight[i]; load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// Dispatch sends one minion via the balancer and returns its result. The
// task runs through the pool's retry/strike/in-flight path, so balancers
// reading Pool.InFlight see it the moment it is placed.
func (pl *Pool) Dispatch(p *sim.Proc, b Balancer, cmd core.Command) TaskResult {
	i, err := b.Pick(p, pl)
	if err != nil {
		return TaskResult{Device: -1, Err: err}
	}
	resp, attempts, err := pl.runTask(p, i, cmd)
	return TaskResult{Device: i, Resp: resp, Err: err, Attempts: attempts}
}
