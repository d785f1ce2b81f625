// Command compstor-sim runs one workload end-to-end on a simulated
// CompStor testbed and prints a full report: throughput, energy, PCIe
// traffic, FTL activity, and device status — the quickest way to poke at
// the platform.
//
// Usage:
//
//	compstor-sim [-devices N] [-books N] [-mean BYTES] [-app gzip|gunzip|bzip2|bunzip2|grep|gawk]
//	             [-compare] [-script "grep -c the books/book000.txt"]
package main

import (
	"flag"
	"fmt"
	"os"

	"compstor/internal/apps/appset"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/experiments"
	"compstor/internal/sim"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

func main() {
	devices := flag.Int("devices", 2, "number of CompStor devices")
	books := flag.Int("books", 24, "corpus files")
	mean := flag.Int("mean", 32<<10, "book-size scale in bytes: sizes are uniform in 0.5–2× it, averaging 1.25×")
	app := flag.String("app", "grep", "workload application")
	script := flag.String("script", "", "run this shell script as a single minion on device 0 instead of a workload")
	compare := flag.Bool("compare", false, "also run the workload on the Xeon host baseline")
	flag.Parse()

	if *script != "" {
		runScript(*script, *books, *mean)
		return
	}

	opt := experiments.DefaultOptions()
	opt.Books = *books
	opt.MeanBookBytes = *mean

	w, err := experiments.WorkloadByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res := experiments.RunPool(opt, *devices, w)
	t := trace.NewTable(fmt.Sprintf("%s over %d device(s), %d files (%s plain corpus)",
		*app, *devices, *books, trace.Bytes(res.PlainBytes)),
		"metric", "value")
	t.AddRow("wall time (virtual)", res.Elapsed)
	t.AddRow("throughput", trace.MBps(res.MBps()*1e6))
	t.AddRow("device energy", fmt.Sprintf("%.3f J (%.1f J/GB)", res.Joules, res.JPerGB()))
	t.AddRow("task failures", res.Failures)
	t.Render(os.Stdout)

	if *compare {
		h := experiments.RunHost(opt, w)
		fmt.Println()
		t2 := trace.NewTable("Xeon host baseline (conventional SSD)", "metric", "value")
		t2.AddRow("wall time (virtual)", h.Elapsed)
		t2.AddRow("throughput", trace.MBps(h.MBps()*1e6))
		t2.AddRow("host CPU energy", fmt.Sprintf("%.3f J (%.1f J/GB)", h.Joules, h.JPerGB()))
		t2.Render(os.Stdout)
		fmt.Printf("\nenergy ratio (host/CompStor): %.2fx\n", h.JPerGB()/res.JPerGB())
	}
}

// runScript stages the corpus on one device and runs a single shell-script
// minion, printing its output and lifetime.
func runScript(script string, books, mean int) {
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
	})
	unit := sys.Device(0)
	corpus := textgen.Corpus(textgen.Config{Seed: 2018, Books: books, MeanBookBytes: mean})
	var files []cluster.File
	for _, b := range corpus {
		files = append(files, cluster.File{Name: b.Name, Data: b.Data})
	}
	var m *core.Minion
	sys.Go("client", func(p *sim.Proc) {
		for _, f := range files {
			if err := unit.Client.FS().WriteFile(p, f.Name, f.Data); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		var err error
		m, err = unit.Client.SendMinion(p, core.Command{Script: script})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	})
	sys.Run()
	sys.Close()
	r := m.Response
	fmt.Printf("$ %s\n", script)
	os.Stdout.Write(r.Stdout)
	if len(r.Stderr) > 0 {
		os.Stderr.Write(r.Stderr)
	}
	fmt.Printf("\nstatus=%v exit=%d in-device=%v round-trip=%v\n",
		r.Status, r.ExitCode, r.Elapsed, m.RoundTrip())
}
