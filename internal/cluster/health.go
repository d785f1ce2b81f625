package cluster

import (
	"fmt"
	"sort"
	"time"

	"compstor/internal/sim"
)

// Gray-failure health scoring. The strike counter (RetryPolicy.DeadAfter)
// only catches clean deaths: a device that stops answering. Real fleets
// fail *slow* — a device keeps answering, just 10-40× later than its peers,
// and under a binary dead/alive model it quietly owns the tail. The health
// scorer keeps an EWMA of per-attempt latency and error rate for every
// device, trips a gray device into quarantine, and readmits it through a
// half-open probation state that risks single probe requests instead of
// real traffic.
//
// Latency is scored per program, a device's grep EWMA against its peers':
// one EWMA over a mix scores the mix, and a healthy device that drew a run
// of 14 ms gzips beside peers' 1 ms greps would trip.

// HealthState is a device's circuit-breaker state.
type HealthState int

// Health states.
const (
	// HealthHealthy devices take normal traffic.
	HealthHealthy HealthState = iota
	// HealthQuarantined devices take no traffic until their cooldown
	// elapses.
	HealthQuarantined
	// HealthProbation (half-open) devices take single probe requests; enough
	// consecutive probe successes readmit them, one failure re-quarantines
	// with a doubled cooldown.
	HealthProbation
)

// HealthPolicy configures gray-failure detection. The zero value disables
// it, keeping the PR 1 strike model byte-identical.
type HealthPolicy struct {
	// Enabled turns health scoring on (default off).
	Enabled bool
	// Cooldown is the quarantine dwell before probation; it doubles every
	// time a probe fails (0 selects 50ms). It stays a field because a
	// serving run scales it to its horizon, so probation and readmission
	// happen inside the measured window.
	Cooldown time.Duration
}

// DefaultHealthPolicy returns the enabled policy the tail experiments use.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{Enabled: true}
}

func (hp HealthPolicy) cooldown() time.Duration {
	if hp.Cooldown <= 0 {
		return 50 * time.Millisecond
	}
	return hp.Cooldown
}

// The scorer's parameters are constants, not policy fields: no experiment,
// command or benchmark ever set them.
const (
	// healthLatencyAlpha weighs one attempt in the latency EWMA: 0.2 is a
	// ~10-attempt memory, short enough to see a device go gray within one
	// healthMinSamples window and long enough that one slow request is not
	// a trend.
	healthLatencyAlpha = 0.2
	// healthErrorAlpha weighs one attempt in the error-rate EWMA. Half the
	// latency weight: errors are rarer and each is stronger evidence, so the
	// rate is averaged over ~20 attempts before it may trip anything.
	healthErrorAlpha = 0.1
	// healthErrThreshold trips a device whose error-rate EWMA exceeds it:
	// past one half, an attempt on the device is more likely to fail than not.
	healthErrThreshold = 0.5
	// healthLatencyFactor trips a device whose latency EWMA exceeds this
	// multiple of the peer median. Fail-slow devices run 10-40x late; 4x sits
	// above any imbalance sharding or queueing produces between healthy peers.
	healthLatencyFactor = 4
	// healthMinSamples attempts must be absorbed before either trip can fire,
	// and attempts of one program before a device's latency for it trips or
	// counts toward the peer median: one and a half latency-EWMA memories,
	// so the first (cold) attempts have decayed.
	healthMinSamples = 16
	// healthProbeSuccesses consecutive probe successes readmit a probation
	// device: one could be luck, three in a row on a gray device is not.
	healthProbeSuccesses = 3
)

// deviceHealth is one device's score and breaker state.
type deviceHealth struct {
	state     HealthState
	lat       map[string]latScore // per program
	errEWMA   float64             // failure fraction
	samples   int64
	trippedAt sim.Time
	cooldown  time.Duration
	probeOK   int  // consecutive probe successes in probation
	probing   bool // a probe is currently routed to this device
}

// latScore is one device's attempt latency EWMA for one program.
type latScore struct {
	ewma    float64 // seconds per attempt
	samples int64
}

// advanceHealth applies the lazy Quarantined→Probation transition.
func (pl *Pool) advanceHealth(i int, now sim.Time) {
	h := &pl.health[i]
	if h.state == HealthQuarantined && now.Sub(h.trippedAt) >= h.cooldown {
		h.state = HealthProbation
		h.probeOK = 0
		h.probing = false
		pl.obs.InstantAt(now, "cluster", "probation", "device", fmt.Sprint(i))
	}
}

// routable reports whether device i may take normal (non-probe) traffic:
// alive and, with health scoring on, in the healthy state.
func (pl *Pool) routable(i int) bool {
	if pl.dead[i] {
		return false
	}
	if !pl.Health.Enabled {
		return true
	}
	pl.advanceHealth(i, pl.eng.Now())
	return pl.health[i].state == HealthHealthy
}

// probePick returns a probation device due for a probe, marking it probing
// so only one probe is in flight per device. Balancers call it first: the
// probe rides a real request, which is how a half-open breaker risks one
// unit of work to learn whether the device recovered.
func (pl *Pool) probePick() (int, bool) {
	if !pl.Health.Enabled {
		return -1, false
	}
	now := pl.eng.Now()
	for i := range pl.health {
		if pl.dead[i] {
			continue
		}
		pl.advanceHealth(i, now)
		h := &pl.health[i]
		if h.state == HealthProbation && !h.probing {
			h.probing = true
			pl.cProbes.Add(1)
			return i, true
		}
	}
	return -1, false
}

// recordHealth folds one attempt's outcome into device i's score and drives
// the breaker. failed must be true only for device-rooted failures
// (transport, media): an application error or a deadline/cancel abort says
// nothing about the device's health. Latency still folds in either way —
// a gray device is slow regardless of outcome. prog names what ran.
func (pl *Pool) recordHealth(p *sim.Proc, i int, prog string, lat time.Duration, failed bool) {
	if !pl.Health.Enabled {
		return
	}
	h := &pl.health[i]
	if h.lat == nil {
		h.lat = map[string]latScore{}
	}
	ls := h.lat[prog]
	if ls.samples == 0 {
		ls.ewma = lat.Seconds()
	} else {
		ls.ewma += healthLatencyAlpha * (lat.Seconds() - ls.ewma)
	}
	ls.samples++
	h.lat[prog] = ls
	e := 0.0
	if failed {
		e = 1.0
	}
	h.errEWMA += healthErrorAlpha * (e - h.errEWMA)
	h.samples++

	wasProbe := h.probing
	h.probing = false

	switch h.state {
	case HealthProbation:
		if !wasProbe {
			return
		}
		if failed {
			// One failed probe re-quarantines with escalating cooldown.
			pl.quarantine(p, i, 2*h.cooldown, "probe_failed")
			return
		}
		h.probeOK++
		if h.probeOK >= healthProbeSuccesses {
			h.state = HealthHealthy
			h.errEWMA = 0
			h.probeOK = 0
			pl.cReadmits.Add(1)
			pl.obs.Instant(p, "cluster", "readmit", "device", fmt.Sprint(i))
		}
	case HealthHealthy:
		if h.samples < healthMinSamples {
			return
		}
		cause := ""
		if h.errEWMA > healthErrThreshold {
			cause = "errors"
		} else if med, ok := pl.medianLatEWMA(i, prog); ok && ls.samples >= healthMinSamples && ls.ewma > healthLatencyFactor*med {
			cause = "latency"
		}
		if cause != "" {
			pl.quarantine(p, i, pl.Health.cooldown(), cause)
		}
	}
}

// quarantine opens device i's breaker for dwell and records why.
func (pl *Pool) quarantine(p *sim.Proc, i int, dwell time.Duration, cause string) {
	h := &pl.health[i]
	h.state = HealthQuarantined
	h.trippedAt = p.Now()
	h.cooldown = dwell
	h.probeOK = 0
	pl.cQuarantines.Add(1)
	pl.obs.Instant(p, "cluster", "quarantine", "device", fmt.Sprint(i), "cause", cause)
}

// recordNeutral clears device i's probe-in-flight marker without scoring
// the outcome. Canceled tasks land here: the host revoked the request, so
// its outcome says nothing about the device — but a probe that ends
// canceled must still release its slot or probation wedges with no probe
// ever in flight again.
func (pl *Pool) recordNeutral(i int) {
	if !pl.Health.Enabled {
		return
	}
	pl.health[i].probing = false
}

// recordHedgeLoss folds a lost hedge race into the primary device's score.
// This is the signal that keeps a hedged pool honest: the winner cancels
// the loser, so a gray device's terrible completion latencies are censored
// — recordHealth never sees them. What is observed is the loss itself: a
// tied secondary on a peer finished the same work, hedge delay included,
// before the primary did. Losses feed the error EWMA; a healthy device
// trips once they dominate, and a probation device whose probe loses its
// race re-quarantines — beaten by a peer is still slow.
func (pl *Pool) recordHedgeLoss(p *sim.Proc, i int) {
	if !pl.Health.Enabled {
		return
	}
	h := &pl.health[i]
	h.errEWMA += healthErrorAlpha * (1 - h.errEWMA)
	h.samples++
	switch h.state {
	case HealthProbation:
		pl.quarantine(p, i, 2*h.cooldown, "probe_lost_hedge")
	case HealthHealthy:
		if h.samples >= healthMinSamples && h.errEWMA > healthErrThreshold {
			pl.quarantine(p, i, pl.Health.cooldown(), "hedge_losses")
		}
	}
}

// medianLatEWMA returns the median latency EWMA for prog over the other
// devices with enough samples of it — the peer baseline a suspect is
// compared against.
func (pl *Pool) medianLatEWMA(except int, prog string) (float64, bool) {
	var vals []float64
	for i := range pl.health {
		if i == except || pl.dead[i] {
			continue
		}
		if ls := pl.health[i].lat[prog]; ls.samples >= healthMinSamples {
			vals = append(vals, ls.ewma)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	return vals[len(vals)/2], true
}

// HealthCounters reports the breaker activity counters for tests and
// experiment reporting.
type HealthCounters struct {
	Quarantines int64
	Readmits    int64
	Probes      int64
}

// HealthStats samples the health counters.
func (pl *Pool) HealthStats() HealthCounters {
	return HealthCounters{
		Quarantines: pl.cQuarantines.Value(),
		Readmits:    pl.cReadmits.Value(),
		Probes:      pl.cProbes.Value(),
	}
}

// HealthyFraction estimates the fraction of the pool taking normal traffic:
// alive, healthy devices over all devices. The serve layer's admission
// control reads it to brown out the background lane before the interactive
// lane feels the capacity loss. Always 1 with health scoring disabled.
func (pl *Pool) HealthyFraction() float64 {
	if !pl.Health.Enabled || len(pl.units) == 0 {
		return 1
	}
	now := pl.eng.Now()
	n := 0
	for i := range pl.units {
		if pl.dead[i] {
			continue
		}
		pl.advanceHealth(i, now)
		if pl.health[i].state == HealthHealthy {
			n++
		}
	}
	return float64(n) / float64(len(pl.units))
}
