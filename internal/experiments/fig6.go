package experiments

import (
	"fmt"
	"io"

	"compstor/internal/trace"
)

// Fig6Series is one application's performance-vs-devices curve.
type Fig6Series struct {
	App      string
	Devices  []int
	MBps     []float64
	Failures int
}

// Speedup returns the last point's throughput relative to the first.
func (s Fig6Series) Speedup() float64 {
	if len(s.MBps) == 0 || s.MBps[0] == 0 {
		return 0
	}
	return s.MBps[len(s.MBps)-1] / s.MBps[0]
}

// Fig6Result is the scaling experiment's outcome, one series per application.
type Fig6Result []Fig6Series

// Fig6 reproduces the linear-scaling experiment: the corpus is sharded
// across N CompStors and each application's aggregate throughput is
// measured as N grows.
func Fig6(o Options, apps []string) Fig6Result {
	if len(apps) == 0 {
		apps = []string{"gzip", "bzip2", "grep", "gawk"}
	}
	var out Fig6Result
	for _, name := range apps {
		w, err := WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		s := Fig6Series{App: name, Devices: o.DeviceCounts}
		for _, n := range o.DeviceCounts {
			o.logf("fig6: %s on %d device(s)...", name, n)
			r := RunPool(o, n, w)
			s.MBps = append(s.MBps, r.MBps())
			s.Failures += r.Failures
		}
		out = append(out, s)
	}
	return out
}

// Render writes the scaling report.
func (series Fig6Result) Render(w io.Writer) {
	if len(series) == 0 {
		return
	}
	headers := []string{"devices"}
	for _, s := range series {
		headers = append(headers, s.App+" MB/s")
	}
	t := trace.NewTable("Fig 6 — aggregate in-situ throughput vs number of CompStors", headers...)
	for i, n := range series[0].Devices {
		row := []any{n}
		for _, s := range series {
			row = append(row, s.MBps[i])
		}
		t.AddRow(row...)
	}
	t.Render(w)
	for _, s := range series {
		fmt.Fprintf(w, "%s: %.2fx speedup from %d to %d devices (linear would be %.1fx)\n",
			s.App, s.Speedup(), s.Devices[0], s.Devices[len(s.Devices)-1],
			float64(s.Devices[len(s.Devices)-1])/float64(s.Devices[0]))
	}
}
