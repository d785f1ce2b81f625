package obs

import (
	"math"
	"math/bits"

	"compstor/internal/sim"
)

// Counter is a monotonically interpreted event count. Negative deltas clamp
// at zero and positive deltas saturate at MaxInt64 rather than wrapping, so
// a buggy caller distorts one metric instead of poisoning a whole snapshot
// with a wrapped value.
type Counter struct {
	v int64
}

// Add applies a delta. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	switch {
	case n > 0 && c.v > math.MaxInt64-n:
		c.v = math.MaxInt64
	case n < 0 && c.v+n < 0:
		c.v = 0
	default:
		c.v += n
	}
}

// Value returns the current count (zero on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// histBuckets is one bucket per power of two of nanoseconds (bucket 0 holds
// exact zeros, bucket i holds [2^(i-1), 2^i) ns), covering the full int64
// duration range.
const histBuckets = 65

// Histogram accumulates sim-time durations into log-scaled buckets and
// reports interpolated quantiles plus the exact min/max/sum. Negative
// observations clamp to zero.
type Histogram struct {
	count   int64
	sumNS   int64
	minNS   int64
	maxNS   int64
	buckets [histBuckets]int64
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := max(int64(d), 0)
	if h.count == 0 || v < h.minNS {
		h.minNS = v
	}
	h.maxNS = max(h.maxNS, v)
	h.count++
	if h.sumNS > math.MaxInt64-v {
		h.sumNS = math.MaxInt64
	} else {
		h.sumNS += v
	}
	h.buckets[bits.Len64(uint64(v))]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.sumNS)
}

// Min returns the smallest observation (zero when empty).
func (h *Histogram) Min() sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return sim.Duration(h.minNS)
}

// Max returns the largest observation (zero when empty).
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.maxNS)
}

// Quantile returns the q-quantile (q in [0,1]), linearly interpolated
// within the containing bucket and clamped to the observed min/max. Zero
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(int64(math.Ceil(q*float64(h.count))), 1)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i]
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == 0 {
			return 0
		}
		lo := int64(1) << (i - 1)
		hi := int64(1)<<i - 1
		if i == 64 {
			hi = math.MaxInt64
		}
		lo = max(lo, h.minNS)
		hi = max(min(hi, h.maxNS), lo)
		frac := float64(rank-cum) / float64(n)
		return sim.Duration(lo + int64(frac*float64(hi-lo)))
	}
	return sim.Duration(h.maxNS)
}
