package experiments

import (
	"fmt"
	"io"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/pcie"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// Fig1Result reproduces Fig. 1: the bandwidth mismatch between the flash
// media and the host CPU in high-capacity storage servers.
type Fig1Result struct {
	// Analytic rows for the paper's Open-Compute-style server (64 x 24 TB
	// SSDs, 16 channels x 533 MB/s each, PCIe x16 host).
	PerSSDMediaBW  float64 // bytes/s at one SSD's media interface
	PerSSDPortBW   float64 // bytes/s at one SSD's PCIe port
	ServerSSDs     int
	ServerMediaBW  float64 // aggregate media bandwidth
	HostUplinkBW   float64 // root-complex bandwidth
	AnalyticFactor float64 // ServerMediaBW / HostUplinkBW

	// Measured on the simulated testbed: raw scan bandwidth of the same
	// dataset through the host path vs the in-situ path.
	MeasuredDevices  int
	MeasuredHostBW   float64
	MeasuredInSituBW float64
	MeasuredFactor   float64
}

// Fig1 computes the analytic mismatch for the paper's server and measures
// the host-path vs media-path scan bandwidth on a simulated multi-device
// testbed.
func Fig1(o Options) Fig1Result {
	paperGeo := flash.PaperGeometry()
	timing := flash.DefaultTiming()
	r := Fig1Result{
		PerSSDMediaBW: paperGeo.MediaBandwidth(timing),
		PerSSDPortBW:  pcie.PortBytesPerSec,
		ServerSSDs:    64,
		HostUplinkBW:  pcie.UplinkBytesPerSec,
	}
	r.ServerMediaBW = r.PerSSDMediaBW * float64(r.ServerSSDs)
	r.AnalyticFactor = r.ServerMediaBW / r.HostUplinkBW

	// Measured: stage one large file per device, then scan every file
	// concurrently (a) through the NVMe host path, (b) through the ISPS
	// direct path. Raw reads, no compute model: this isolates data-access
	// bandwidth exactly as Fig. 1 argues.
	devices := 8
	if len(o.DeviceCounts) > 0 {
		devices = o.DeviceCounts[len(o.DeviceCounts)-1]
	}
	fileBytes := max(int64(o.Books)*int64(o.MeanBookBytes)/int64(devices), 1<<20)
	sys := o.system(o.Obs.Scope("scan"), core.SystemConfig{CompStors: devices})
	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}

	scan := func(host bool) float64 {
		var start, end sim.Time
		sys.Go("scan-driver", func(p *sim.Proc) {
			start = p.Now()
			p.Fork(devices, func(d int) string { return fmt.Sprintf("scan%d", d) }, func(sp *sim.Proc, d int) {
				view := sys.Device(d).Drive.ISPSView()
				if host {
					view = sys.Device(d).Client.FS()
				}
				if _, err := view.ReadFile(sp, "blob"); err != nil {
					panic(fmt.Sprintf("fig1 scan: %v", err))
				}
			})
			end = p.Now()
		})
		sys.Run()
		return float64(fileBytes) * float64(devices) / end.Sub(start).Seconds()
	}

	// Stage.
	for d := 0; d < devices; d++ {
		sys.Go(fmt.Sprintf("stage%d", d), func(p *sim.Proc) {
			stageFiles(p, sys.Device(d).Client.FS(), cluster.File{Name: "blob", Data: payload})
		})
	}
	sys.Run()

	r.MeasuredDevices = devices
	r.MeasuredHostBW = scan(true)
	r.MeasuredInSituBW = scan(false)
	sys.Close()
	if r.MeasuredHostBW > 0 {
		r.MeasuredFactor = r.MeasuredInSituBW / r.MeasuredHostBW
	}
	return r
}

// Render writes the Fig. 1 report.
func (r Fig1Result) Render(w io.Writer) {
	t := trace.NewTable("Fig 1 — bandwidth mismatch in high-capacity storage servers",
		"quantity", "value")
	t.AddRow("per-SSD media interface", trace.MBps(r.PerSSDMediaBW))
	t.AddRow("per-SSD PCIe port", trace.MBps(r.PerSSDPortBW))
	t.AddRow(fmt.Sprintf("server media aggregate (%d SSDs)", r.ServerSSDs), trace.MBps(r.ServerMediaBW))
	t.AddRow("host root complex (x16)", trace.MBps(r.HostUplinkBW))
	t.AddRow("analytic mismatch factor", fmt.Sprintf("%.1fx", r.AnalyticFactor))
	t.Render(w)
	fmt.Fprintln(w)
	t2 := trace.NewTable(fmt.Sprintf("Measured scan bandwidth (%d simulated devices)", r.MeasuredDevices),
		"path", "aggregate bandwidth")
	t2.AddRow("host (NVMe/PCIe)", trace.MBps(r.MeasuredHostBW))
	t2.AddRow("in-situ (ISPS direct)", trace.MBps(r.MeasuredInSituBW))
	t2.AddRow("in-situ advantage", fmt.Sprintf("%.1fx", r.MeasuredFactor))
	t2.Render(w)
}
