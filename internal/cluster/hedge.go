package cluster

import (
	"fmt"
	"time"

	"compstor/internal/apps"
	"compstor/internal/core"
	"compstor/internal/sim"
)

// Hedged requests ("the tail at scale"): when a request has waited past the
// pool's observed latency quantile, a tied secondary is issued to another
// replica holding the staged file (StageReplicated makes every alive device
// a replica). First response wins; the winner cancels the loser through its
// CancelToken, so the losing twin stops consuming a core and DRAM at its
// next cooperative checkpoint instead of running to completion. Hedging is
// safe here because in-situ kernels are idempotent reads: running the same
// scan twice cannot corrupt anything, it can only waste the loser's work —
// which cancellation bounds.

// HedgePolicy configures hedged dispatch. The zero value disables it.
type HedgePolicy struct {
	// Enabled turns hedging on (default off).
	Enabled bool
}

// DefaultHedgePolicy returns the enabled policy the tail experiments use.
func DefaultHedgePolicy() HedgePolicy {
	return HedgePolicy{Enabled: true}
}

// The hedge timer's three parameters are constants, not policy fields: no
// experiment, command or benchmark ever set them.
const (
	// hedgeQuantile of the pool's observed task latency is the hedge delay:
	// at p95 only the slowest twentieth of requests ever hedge, which caps
	// the duplicated work at ~5% ("The Tail at Scale" picks the same point).
	hedgeQuantile = 0.95
	// hedgeMinSamples completed tasks must be observed before hedging arms —
	// an unwarmed quantile would hedge everything or nothing. 32 gives p95 at
	// least one sample above it.
	hedgeMinSamples = 32
	// hedgeMinDelay floors the hedge delay so a tight latency distribution
	// cannot hedge instantly; it equals the first retry backoff, the
	// shortest wait the pool takes anywhere else.
	hedgeMinDelay = baseBackoff
)

// noteLatency feeds one successful task latency into the hedge-delay
// tracker. The histogram is pool-internal (not registered with obs) so an
// uninstrumented pool hedges identically to an instrumented one.
func (pl *Pool) noteLatency(d time.Duration) {
	pl.latencies.Observe(d)
}

// hedgeDelay returns the current hedge delay, or false while the latency
// quantile is still warming up.
func (pl *Pool) hedgeDelay() (time.Duration, bool) {
	if pl.latencies.Count() < hedgeMinSamples {
		return 0, false
	}
	return max(pl.latencies.Quantile(hedgeQuantile), hedgeMinDelay), true
}

// hedgePick selects the secondary replica: the routable device with the
// fewest in-flight tasks, excluding the primary. Probation and quarantined
// devices never take hedges — a hedge exists to dodge a slow device, not to
// probe one.
func (pl *Pool) hedgePick(primary int) (int, bool) {
	best := pl.leastLoaded(func(i int) bool { return i != primary && pl.routable(i) })
	return best, best >= 0
}

// hedgeOutcome is one leg's result; leg -1 is the hedge-timer sentinel.
type hedgeOutcome struct {
	leg      int
	resp     *core.Response
	attempts int
	err      error
}

// RunHedged is a race of two runTask calls: it executes one minion on device
// dev, and if no response arrives within the pool's tracked latency quantile
// a tied secondary is issued to the least-loaded other replica, the first
// success wins, and the winner cancels the loser. It is a single plain
// runTask while hedging is disabled or the quantile is warming up. Each leg
// carries its own CancelToken (any caller-provided token is superseded);
// the deadline, if set, rides both legs unchanged.
func (pl *Pool) RunHedged(p *sim.Proc, dev int, cmd core.Command) (*core.Response, int, error) {
	delay, armed := pl.hedgeDelay()
	if !pl.Hedge.Enabled || !armed {
		return pl.runTask(p, dev, cmd)
	}

	out := sim.NewMailbox[hedgeOutcome]()
	var tokens [2]*apps.CancelToken
	launch := func(leg, target int) {
		c := cmd
		tok := &apps.CancelToken{}
		tokens[leg] = tok
		c.Cancel = tok
		p.Go(fmt.Sprintf("hedge%d", leg), func(hp *sim.Proc) {
			resp, att, err := pl.runTask(hp, target, c)
			out.Put(hedgeOutcome{leg: leg, resp: resp, attempts: att, err: err})
		})
	}
	launch(0, dev)
	pl.eng.After(delay, func() { out.Put(hedgeOutcome{leg: -1}) })

	var (
		attempts    int
		outstanding = 1
		hedged      = false
		firstErr    error
		firstResp   *core.Response
	)
	for {
		o, _ := out.Recv(p) // the mailbox is never closed
		if o.leg == -1 {
			// Hedge timer: if the primary is still outstanding, issue the
			// tied secondary to another replica.
			if outstanding == 0 || hedged {
				continue
			}
			s, found := pl.hedgePick(dev)
			if !found {
				continue
			}
			hedged = true
			outstanding++
			pl.cHedgeIssued.Add(1)
			pl.obs.Instant(p, "cluster", "hedge", "primary", fmt.Sprint(dev), "secondary", fmt.Sprint(s))
			launch(1, s)
			continue
		}
		attempts += o.attempts
		outstanding--
		if o.err == nil {
			// Winner: tie off the other leg.
			tokens[1-o.leg].Cancel()
			if hedged {
				if o.leg == 1 {
					pl.cHedgeWon.Add(1)
					// The primary lost the race: the only uncensored
					// evidence a hedged-away gray device ever produces.
					pl.recordHedgeLoss(p, dev)
				} else {
					pl.cHedgeWasted.Add(1)
				}
			}
			return o.resp, attempts, nil
		}
		if o.leg == 0 || firstErr == nil {
			// Prefer the primary's error for reporting.
			firstErr, firstResp = o.err, o.resp
		}
		if outstanding == 0 {
			return firstResp, attempts, firstErr
		}
	}
}

// HedgeStats reports the hedge counters (issued, secondary wins, wasted
// secondaries) for tests and experiment reporting.
type HedgeStats struct {
	Issued int64
	Won    int64
	Wasted int64
}

// HedgeStats samples the hedge counters.
func (pl *Pool) HedgeStats() HedgeStats {
	return HedgeStats{
		Issued: pl.cHedgeIssued.Value(),
		Won:    pl.cHedgeWon.Value(),
		Wasted: pl.cHedgeWasted.Value(),
	}
}
