package experiments

import (
	"fmt"
	"io"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/flash"
	"compstor/internal/pcie"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// Table1, Table2 and Table4 are rendered from model constants; nothing is
// simulated, so the result carries no data.
type (
	Table1 struct{}
	Table2 struct{}
	Table4 struct{}
)

// Render writes the related-work comparison (paper Table I), with the
// right-hand column noting which design points this repository actually
// implements as runnable configurations.
func (Table1) Render(w io.Writer) {
	t := trace.NewTable("Table I — in-storage computation frameworks",
		"work", "prototype / engine", "dyn. task load", "library", "OS-level flexibility", "in this repo")
	t.AddRow("Jun (BlueDBM)", "FPGA SSD / FPGA accelerator", "no", "yes", "no", "-")
	t.AddRow("Abbani", "FPGA SSD / soft microprocessor", "no", "yes", "no", "-")
	t.AddRow("Kang (SmartSSD)", "OTS SATA SSD / 2 ARM", "no", "yes", "no", "shared-core ablation")
	t.AddRow("Kim", "simulation / ARM A9", "no", "yes", "no", "-")
	t.AddRow("Tiwari (ActiveFlash)", "model / ARM A9", "no", "no", "no", "-")
	t.AddRow("Gu (Biscuit)", "OTS NVMe SSD / ARM R7 (shared)", "yes", "yes", "no", "SharedCores=true")
	t.AddRow("Gao", "simulation / ARM A7", "no", "yes", "no", "-")
	t.AddRow("CompStor", "24TB NVMe SSD / quad A53 + Linux", "yes", "yes", "yes", "default config")
	t.Render(w)
}

// Render writes the ISPS characteristics (paper Table II) from the live
// platform model.
func (Table2) Render(w io.Writer) {
	p := cpu.ISPS()
	t := trace.NewTable("Table II — ISPS characteristics", "property", "value")
	t.AddRow("processor", fmt.Sprintf("64-bit %d-core ARM Cortex A53 @ %.1fGHz", p.Cores, p.ClockGHz))
	t.AddRow("L1 caches", fmt.Sprintf("%dKB I-cache & D-cache", p.L1KB))
	t.AddRow("L2 cache", fmt.Sprintf("%dMB", p.L2KB/1024))
	t.AddRow("memory", p.Memory)
	t.AddRow("base power", fmt.Sprintf("%.1f W", p.BaseWatts))
	t.AddRow("per-core active power", fmt.Sprintf("%.1f W", p.CoreActiveWatts))
	t.Render(w)
}

// Table3Step is one step of a traced minion lifetime.
type Table3Step struct {
	Step int
	At   sim.Time
	What string
}

// Table3Result is one traced minion lifetime: the paper's six steps with
// measured virtual timestamps, plus the figures of its summary line.
type Table3Result struct {
	Steps     []Table3Step
	Elapsed   sim.Duration
	RoundTrip sim.Duration
	Stdout    string
}

// Table3 traces one real minion through the stack: the paper's six
// lifetime steps with measured virtual timestamps.
func Table3(o Options) Table3Result {
	sys := o.system(o.Obs.Scope("table3"), core.SystemConfig{CompStors: 1})
	unit := sys.Device(0)
	var m *core.Minion
	var ftlReadsBefore, ftlReadsAfter int64
	sys.Go("client", func(p *sim.Proc) {
		stageFiles(p, unit.Client.FS(), cluster.File{Name: "sample.txt", Data: []byte("needle one\nhay\nneedle two\n")})
		ftlReadsBefore = unit.Drive.FTL().Stats().HostReads
		var err error
		m, err = unit.Client.SendMinion(p, core.Command{
			Exec: "grep", Args: []string{"-c", "needle", "sample.txt"},
			InputFiles: []string{"sample.txt"},
		})
		if err != nil {
			panic(err)
		}
		ftlReadsAfter = unit.Drive.FTL().Stats().HostReads
	})
	sys.Run()
	sys.Close()

	r := m.Response
	return Table3Result{
		Steps: []Table3Step{
			{1, m.Submitted, "client configures the minion and sends it via the in-situ library"},
			{2, r.AgentReceived, "ISPS agent extracts the command and spawns the executable"},
			{3, r.TaskStarted, "executable accesses flash through the device driver"},
			{4, r.TaskStarted, fmt.Sprintf("driver issues read/write commands to the flash controller (%d page reads)", ftlReadsAfter-ftlReadsBefore)},
			{5, r.TaskFinished, "agent tracks completion of the in-situ process"},
			{6, m.Returned, "agent populates the response; minion returns to the client"},
		},
		Elapsed:   r.Elapsed,
		RoundTrip: m.RoundTrip(),
		Stdout:    string(r.Stdout),
	}
}

// Render writes the lifetime table and its summary line.
func (r Table3Result) Render(w io.Writer) {
	t := trace.NewTable("Table III — lifetime of a minion (measured)", "step", "t (virtual)", "description")
	for _, s := range r.Steps {
		t.AddRow(s.Step, s.At, s.What)
	}
	t.Render(w)
	fmt.Fprintf(w, "in-device execution: %v; client round trip: %v; result: %q\n",
		r.Elapsed, r.RoundTrip, r.Stdout)
}

// Render writes the server specification (paper Table IV) from the live
// configuration.
func (Table4) Render(w io.Writer) {
	x := cpu.Xeon()
	t := trace.NewTable("Table IV — server specification", "component", "value")
	t.AddRow("CPU type", x.Name)
	t.AddRow("cores", x.Cores)
	t.AddRow("memory", x.Memory)
	t.AddRow("operating system", "simulated Linux-equivalent execution environment")
	t.AddRow("off-the-shelf SSD", fmt.Sprintf("conventional NVMe SSD (%s raw)", trace.Bytes(flash.DefaultGeometry().Bytes())))
	t.AddRow("in-situ SSD", fmt.Sprintf("CompStor NVMe SSD, paper geometry %s", trace.Bytes(flash.PaperGeometry().Bytes())))
	t.AddRow("fabric", fmt.Sprintf("PCIe: %s uplink, %s per port",
		trace.MBps(pcie.UplinkBytesPerSec), trace.MBps(pcie.PortBytesPerSec)))
	t.Render(w)
}
