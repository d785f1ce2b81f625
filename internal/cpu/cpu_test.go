package cpu

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCalibrationReproducesPaperFig8(t *testing.T) {
	isps, xeon := ISPS(), Xeon()
	classes := []Class{ClassGzip, ClassGunzip, ClassBzip2, ClassBunzip2, ClassGrep, ClassGawk}
	const tol = 0.05 // analytic calibration should be within 5% of the paper
	for _, c := range classes {
		paperC, paperX, ok := PaperFig8(c)
		if !ok {
			t.Fatalf("paper table missing %s", c)
		}
		gotC := predictJoulesPerGB(isps, c)
		gotX := predictJoulesPerGB(xeon, c)
		if rel := math.Abs(gotC-paperC) / paperC; rel > tol {
			t.Errorf("%s CompStor: predicted %.1f J/GB, paper %.1f (%.1f%% off)", c, gotC, paperC, 100*rel)
		}
		if rel := math.Abs(gotX-paperX) / paperX; rel > tol {
			t.Errorf("%s Xeon: predicted %.1f J/GB, paper %.1f (%.1f%% off)", c, gotX, paperX, 100*rel)
		}
	}
}

func TestCalibrationPreservesWinners(t *testing.T) {
	// The paper's headline: CompStor wins energy on every app, up to ~3x.
	isps, xeon := ISPS(), Xeon()
	for _, c := range []Class{ClassGzip, ClassGunzip, ClassBzip2, ClassBunzip2, ClassGrep, ClassGawk} {
		ratio := predictJoulesPerGB(xeon, c) / predictJoulesPerGB(isps, c)
		if ratio <= 1.5 {
			t.Errorf("%s: energy ratio %.2f, CompStor should win clearly", c, ratio)
		}
		if ratio > 3.6 {
			t.Errorf("%s: energy ratio %.2f exceeds the paper's ~3x envelope", c, ratio)
		}
	}
}

func TestTableIISpecs(t *testing.T) {
	isps := ISPS()
	if isps.Cores != 4 || isps.ClockGHz != 1.5 {
		t.Errorf("ISPS topology: %+v", isps)
	}
	if isps.L1KB != 32 || isps.L2KB != 1024 {
		t.Errorf("ISPS caches: L1=%d L2=%d", isps.L1KB, isps.L2KB)
	}
	if isps.MemBytes != 8<<30 {
		t.Errorf("ISPS memory: %d", isps.MemBytes)
	}
	if !strings.Contains(isps.String(), "A53") {
		t.Errorf("String() = %q", isps.String())
	}
}

func TestHostSpecs(t *testing.T) {
	x := Xeon()
	if x.Cores != 8 {
		t.Errorf("Xeon cores = %d", x.Cores)
	}
	if x.FullLoadWatts() != 120 {
		t.Errorf("Xeon full load = %g W", x.FullLoadWatts())
	}
	if ISPS().FullLoadWatts() != 7 {
		t.Errorf("ISPS full load = %g W", ISPS().FullLoadWatts())
	}
}

func TestComputeTimeScalesLinearly(t *testing.T) {
	isps := ISPS()
	t1 := isps.ComputeTime(ClassGrep, 1<<20)
	t4 := isps.ComputeTime(ClassGrep, 4<<20)
	lo, hi := 4*t1-2*time.Nanosecond, 4*t1+2*time.Nanosecond
	if t4 < lo || t4 > hi {
		t.Errorf("4x bytes took %v, want ~4 * %v", t4, t1)
	}
}

func TestUnknownClassFallsBack(t *testing.T) {
	isps := ISPS()
	if isps.Throughput(Class("exotic")) != isps.Throughput(ClassDefault) {
		t.Error("unknown class did not use default throughput")
	}
}

func TestAggregateThroughput(t *testing.T) {
	isps := ISPS()
	if got, want := isps.AggregateThroughput(ClassGrep), 4*isps.Throughput(ClassGrep); got != want {
		t.Errorf("aggregate = %g, want %g", got, want)
	}
}

func TestXeonFasterPerCore(t *testing.T) {
	isps, xeon := ISPS(), Xeon()
	for _, c := range []Class{ClassGzip, ClassGunzip, ClassBzip2, ClassBunzip2, ClassGrep, ClassGawk} {
		if xeon.Throughput(c) <= isps.Throughput(c) {
			t.Errorf("%s: Xeon core (%.0f) not faster than A53 core (%.0f)", c, xeon.Throughput(c), isps.Throughput(c))
		}
	}
}

// predictJoulesPerGB is the analytic energy per input gigabyte of class c
// with all cores busy: the closed form of the paper's Fig 8 bars, which the
// calibration must reproduce.
func predictJoulesPerGB(pl *Platform, c Class) float64 {
	return pl.FullLoadWatts() / (pl.AggregateThroughput(c) / 1e9)
}
