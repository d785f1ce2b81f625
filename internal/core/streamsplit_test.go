package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/cpu"
	"compstor/internal/isps"
	"compstor/internal/sim"
	"compstor/internal/ssd"
	"compstor/internal/textgen"
)

// TestStreamCPUFractionIsMeasured is where cpu.StreamCPUFraction comes
// from. On the serial-read ablation a task's core-busy time C is the whole
// calibrated end-to-end cost of its bytes, and its read stall S
// (ssd.SSD.ReadStall) is flash time the model pays on top: the double count
// the read pipeline removes. A class's CPU share is therefore 1 - S/C,
// measured here in the scan workload's shape — books of 96 KiB mean, four
// tasks at a time on the four-core ISPS, one core each — and every
// committed constant must be that measurement at two decimals.
func TestStreamCPUFractionIsMeasured(t *testing.T) {
	books := textgen.Corpus(textgen.Config{Seed: 2018, Books: 24, MeanBookBytes: 96 << 10})
	// Each step runs one program over every book; a class is measured by
	// the first step that runs it, later steps only prepare inputs.
	steps := []struct {
		class cpu.Class
		args  func(book string) []string
	}{
		{cpu.ClassCat, func(b string) []string { return []string{"cat", b} }},
		{cpu.ClassGrep, func(b string) []string { return []string{"grep", "-c", "the", b} }},
		{cpu.ClassGawk, func(b string) []string { return []string{"gawk", "{n+=NF} END{print n}", b} }},
		{cpu.ClassWC, func(b string) []string { return []string{"wc", b} }},
		{cpu.ClassSort, func(b string) []string { return []string{"sort", b} }},
		{cpu.ClassGzip, func(b string) []string { return []string{"gzip", b} }},
		{cpu.ClassGunzip, func(b string) []string { return []string{"gunzip", b + ".gz"} }},
		{cpu.ClassBzip2, func(b string) []string { return []string{"bzip2", b} }},
		{cpu.ClassBunzip2, func(b string) []string { return []string{"bunzip2", b + ".bz2"} }},
	}
	sys := NewSystem(SystemConfig{CompStors: 1, Registry: appset.Base(), Ablation: ssd.Ablation{SerialReads: true, ScanChunks: 1}})
	drive := sys.Device(0).Drive
	sub := drive.ISPS()
	measured := map[cpu.Class]float64{}
	sys.Go("driver", func(p *sim.Proc) {
		fs := sys.Device(0).Client.FS()
		for _, b := range books {
			if err := fs.WriteFile(p, b.Name, b.Data); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Flush(p); err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			busy0, stall0 := sub.Cores().BusyTime(), drive.ReadStall()
			var wg sim.WaitGroup
			wg.Add(4)
			for w := range 4 {
				sys.Go(fmt.Sprint("worker", w), func(p *sim.Proc) {
					defer wg.Done()
					for i := w; i < len(books); i += 4 {
						argv := st.args(books[i].Name)
						if res := sub.Spawn(p, isps.TaskSpec{Exec: argv[0], Args: argv[1:]}); res.Err != nil {
							t.Errorf("%v: %v", argv, res.Err)
						}
					}
				})
			}
			wg.Wait(p)
			busy, stall := sub.Cores().BusyTime()-busy0, drive.ReadStall()-stall0
			measured[st.class] = 1 - float64(stall)/float64(busy)
			t.Logf("%-8v core busy %9v  read stall %9v  1-S/C %.3f", st.class, busy.Round(time.Microsecond), stall.Round(time.Microsecond), measured[st.class])
		}
	})
	sys.Run()
	sys.Close()
	for c, f := range measured {
		if want := math.Round(f*100) / 100; cpu.StreamCPUFraction(c) != want {
			t.Errorf("StreamCPUFraction(%v) = %v, measured %.3f", c, cpu.StreamCPUFraction(c), f)
		}
	}
}
