// Package cpu models the two processing platforms of the CompStor paper:
// the in-storage processing subsystem (quad-core ARM Cortex-A53 @ 1.5 GHz,
// 8 GB DDR4-2133) and the host server CPU (Intel Xeon E5-2620 v4).
//
// A Platform converts application work (bytes of input consumed, by
// application class) into core-seconds, and carries the power figures used
// by the energy meter. The throughput table lives in calibrate.go together
// with its provenance.
package cpu

import (
	"fmt"
	"time"

	"compstor/internal/sim"
)

// Class identifies an application's cost class for the calibration table.
// Classes are named after the paper's benchmark programs.
type Class string

// Calibrated application classes.
const (
	ClassGzip    Class = "gzip"
	ClassGunzip  Class = "gunzip"
	ClassBzip2   Class = "bzip2"
	ClassBunzip2 Class = "bunzip2"
	ClassGrep    Class = "grep"
	ClassGawk    Class = "gawk"
	ClassWC      Class = "wc"
	ClassSort    Class = "sort"
	ClassCat     Class = "cat"
	ClassDefault Class = "default"
)

// Platform describes one processing platform: topology, clocking, memory,
// power, and the per-class single-core throughput table.
type Platform struct {
	Name     string
	Cores    int
	ClockGHz float64
	L1KB     int
	L2KB     int
	Memory   string
	MemBytes int64

	// BaseWatts is drawn whenever the platform is powered; CoreActiveWatts
	// is the incremental draw per busy core.
	BaseWatts       float64
	CoreActiveWatts float64

	perCore map[Class]float64 // bytes/sec of input per busy core
}

// Throughput returns the single-core input-consumption rate (bytes/second)
// for an application class, falling back to ClassDefault for unknown
// classes.
func (pl *Platform) Throughput(c Class) float64 {
	if v, ok := pl.perCore[c]; ok {
		return v
	}
	return pl.perCore[ClassDefault]
}

// AggregateThroughput returns the all-cores-busy input rate for a class.
func (pl *Platform) AggregateThroughput(c Class) float64 {
	return pl.Throughput(c) * float64(pl.Cores)
}

// ComputeTime returns the single-core time to consume n input bytes of
// class c work.
func (pl *Platform) ComputeTime(c Class, n int64) time.Duration {
	return sim.DurationFor(n, pl.Throughput(c))
}

func (pl *Platform) String() string {
	return fmt.Sprintf("%s (%d cores @ %.1f GHz, %s)", pl.Name, pl.Cores, pl.ClockGHz, pl.Memory)
}
