// Root benchmark harness: one testing.B benchmark per evaluation artefact
// of the paper (figures 1, 6, 7, 8 and the measured tables), plus the
// ablation benches DESIGN.md calls out. Each benchmark runs the full
// simulated experiment and reports the paper's metric (MB/s, J/GB,
// latency) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Shapes — who wins, by what factor —
// are asserted once, by the claims table TestRegistry checks
// (internal/experiments/claims_test.go); here the numbers are surfaced for
// inspection.
package compstor

import (
	"fmt"
	"testing"

	"compstor/internal/experiments"
	"compstor/internal/obs"
)

// benchOptions returns a corpus scale that keeps the full suite under a
// couple of minutes while staying out of the fixed-cost regime.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Books = 32
	o.MeanBookBytes = 24 << 10
	o.DeviceCounts = []int{1, 2, 4, 8}
	return o
}

// BenchmarkFig1BandwidthMismatch reproduces Fig 1: media vs host-interface
// bandwidth, analytic (paper server) and measured (simulated testbed).
func BenchmarkFig1BandwidthMismatch(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(o)
		b.ReportMetric(r.AnalyticFactor, "analytic-mismatch-x")
		b.ReportMetric(r.MeasuredFactor, "measured-insitu-advantage-x")
		b.ReportMetric(r.MeasuredHostBW/1e6, "host-scan-MB/s")
		b.ReportMetric(r.MeasuredInSituBW/1e6, "insitu-scan-MB/s")
	}
}

// BenchmarkFig6Scaling reproduces Fig 6 for each evaluation application:
// aggregate in-situ throughput as devices scale 1→8.
func BenchmarkFig6Scaling(b *testing.B) {
	for _, app := range []string{"gzip", "bzip2", "grep", "gawk"} {
		app := app
		b.Run(app, func(b *testing.B) {
			o := benchOptions()
			for i := 0; i < b.N; i++ {
				series := experiments.Fig6(o, []string{app})
				s := series[0]
				for j, n := range s.Devices {
					b.ReportMetric(s.MBps[j], fmt.Sprintf("MB/s-%ddev", n))
				}
				b.ReportMetric(s.Speedup(), "speedup-x")
			}
		})
	}
}

// BenchmarkFig7Aggregate reproduces Fig 7: concurrent host + N-CompStor
// bzip2 with the corpus split between them.
func BenchmarkFig7Aggregate(b *testing.B) {
	o := benchOptions()
	o.DeviceCounts = []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig7(o)
		for _, pt := range pts {
			b.ReportMetric(pt.TotalMBps, fmt.Sprintf("total-MB/s-%ddev", pt.Devices))
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.HostMBps, "host-MB/s")
		b.ReportMetric(last.DevMBps, "devices-MB/s")
	}
}

// BenchmarkFig8Energy reproduces Fig 8: J/GB for each application on
// CompStor vs the Xeon host.
func BenchmarkFig8Energy(b *testing.B) {
	o := benchOptions()
	o.Books = 16
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(o)
		for _, r := range rows {
			b.ReportMetric(r.CompStorJPerGB, r.App+"-compstor-J/GB")
			b.ReportMetric(r.XeonJPerGB, r.App+"-xeon-J/GB")
		}
	}
}

// BenchmarkTable3MinionLatency measures the minion round trip of Table III.
func BenchmarkTable3MinionLatency(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(o)
		b.ReportMetric(float64(r.RoundTrip.Microseconds()), "roundtrip-us")
	}
}

// BenchmarkAblationInterference quantifies the dedicated-vs-shared-core
// read-latency claim (the paper's Table I motivation).
func BenchmarkAblationInterference(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationInterference(o)
		b.ReportMetric(float64(r.BaselineLatency.Microseconds()), "baseline-us")
		b.ReportMetric(r.DedicatedSlowdown, "dedicated-slowdown-x")
		b.ReportMetric(r.SharedSlowdown, "shared-slowdown-x")
	}
}

// BenchmarkAblationStriping compares channel-striped vs linear FTL
// allocation (the media-parallelism design choice).
func BenchmarkAblationStriping(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationStriping(o)
		b.ReportMetric(r.StripedMBps, "striped-MB/s")
		b.ReportMetric(r.LinearMBps, "linear-MB/s")
	}
}

// BenchmarkAblationDirectPath compares the dedicated ISPS flash path
// against looping in-situ I/O through the protocol front-end.
func BenchmarkAblationDirectPath(b *testing.B) {
	o := benchOptions()
	o.Books = 12
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDirectPath(o)
		b.ReportMetric(r.DirectMBps, "direct-MB/s")
		b.ReportMetric(r.ViaMBps, "via-nvme-MB/s")
	}
}

// BenchmarkObservability measures what the obs layer costs the simulator:
// the same Fig-6 grep point with no Obs wired, with metrics registered but
// tracing disabled (the compstor-bench default), and with full span tracing.
// The first two sub-benchmarks should be indistinguishable — every
// instrumentation site is nil-safe and tracing gates on a single bool.
func BenchmarkObservability(b *testing.B) {
	point := func(b *testing.B, mode string) {
		o := benchOptions()
		o.Books = 12
		o.DeviceCounts = []int{2}
		for i := 0; i < b.N; i++ {
			switch mode {
			case "metrics":
				o.Obs = obs.New()
			case "trace":
				root := obs.New()
				root.EnableTrace()
				o.Obs = root
			}
			series := experiments.Fig6(o, []string{"grep"})
			b.ReportMetric(series[0].MBps[0], "MB/s")
		}
	}
	b.Run("disabled", func(b *testing.B) { point(b, "disabled") })
	b.Run("metrics", func(b *testing.B) { point(b, "metrics") })
	b.Run("trace", func(b *testing.B) { point(b, "trace") })
}
