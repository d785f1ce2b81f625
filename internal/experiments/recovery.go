package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/obs"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// RecoveryPoint is one crash-remount measurement: a seeded write workload
// runs against a fresh FTL, power is cut, and the device is remounted. The
// interesting outputs are where the recovered map came from (checkpoint vs
// OOB replay) and what the remount cost in virtual time.
type RecoveryPoint struct {
	CheckpointEvery int     // journal records between checkpoints (-1 = never)
	MediaMB         float64 // raw NAND size
	Writes          int     // acknowledged host writes before the cut
	CheckpointFound bool
	ReplayedWrites  int64        // journal records replayed past the checkpoint
	ScannedPages    int64        // OOB records examined during the scan
	RecoveredPages  int64        // mapped pages after remount
	RemountTime     sim.Duration // virtual time of the whole remount
}

// recoveryPoint runs writes seeded page writes, cuts power, remounts, and
// reports the recovery statistics.
func recoveryPoint(geo flash.Geometry, ckptEvery, writes int, seed int64, ob *obs.Obs) RecoveryPoint {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	dev := flash.NewDevice(eng, "nand", geo, flash.DefaultTiming())
	dev.SetObs(ob)
	cfg := ftl.Config{OverProvision: 0.25, Striping: true, CheckpointEvery: ckptEvery, Obs: ob}
	f := ftl.New(dev, cfg)
	span := f.LogicalPages() / 2
	data := make([]byte, f.PageSize())
	eng.Go("writer", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < writes; i++ {
			lpn := rng.Int63n(span)
			for j := range data {
				data[j] = byte(int(lpn)*31 + i)
			}
			if err := f.WritePage(p, lpn, data); err != nil {
				panic(fmt.Sprintf("recovery experiment write %d: %v", i, err))
			}
		}
	})
	eng.Run()
	dev.PowerOff()
	dev.PowerOn()
	var rs ftl.RecoveryStats
	eng.Go("remount", func(p *sim.Proc) {
		var err error
		_, rs, err = ftl.Recover(p, dev, cfg)
		if err != nil {
			panic(fmt.Sprintf("recovery experiment remount: %v", err))
		}
	})
	eng.Run()
	return RecoveryPoint{
		CheckpointEvery: ckptEvery,
		MediaMB:         float64(geo.Pages()) * float64(geo.PageSize) / (1 << 20),
		Writes:          writes,
		CheckpointFound: rs.CheckpointFound,
		ReplayedWrites:  int64(rs.ReplayedWrites),
		ScannedPages:    int64(rs.ScannedPages),
		RecoveredPages:  int64(rs.RecoveredPages),
		RemountTime:     rs.Elapsed,
	}
}

// RecoveryResult is the crash-recovery evaluation: the checkpoint-interval
// sweep and the media-size sweep.
type RecoveryResult struct{ Intervals, Scaling []RecoveryPoint }

// Recovery runs both remount sweeps on a shrunken geometry (recovery cost
// scales with pages, not page size). Intervals varies the checkpoint
// interval at fixed media: a tighter interval trades steady-state
// checkpoint writes for less journal replay at remount, with "never
// checkpoint" as the full-scan baseline. Scaling doubles the media at a
// fixed interval: the OOB scan walks every written page, so remount time
// grows with media, which is exactly why the checkpoint region exists.
func Recovery(o Options) RecoveryResult {
	geo := o.Geometry
	geo.BlocksPerPlan, geo.PagesPerBlock, geo.PageSize = 16, 32, 1024
	var r RecoveryResult
	for _, every := range []int{-1, 4096, 1024, 256, 64} {
		o.logf("recovery: checkpoint interval %d...", every)
		r.Intervals = append(r.Intervals, recoveryPoint(geo, every, int(geo.Pages()/4), o.Seed, o.Obs.Scope(fmt.Sprintf("ckpt%d", every))))
	}
	for i := 0; i < 4; i++ {
		o.logf("recovery: media scale %dx...", 1<<i)
		r.Scaling = append(r.Scaling, recoveryPoint(geo, 1024, int(geo.Pages()/4), o.Seed, o.Obs.Scope(fmt.Sprintf("scale%d", 1<<i))))
		geo.BlocksPerPlan *= 2
	}
	return r
}

// Render writes both remount reports.
func (r RecoveryResult) Render(w io.Writer) {
	t := trace.NewTable("Crash recovery — remount latency vs checkpoint interval",
		"ckpt every", "media MB", "writes", "ckpt found", "replayed", "scanned pages", "remount")
	for _, pt := range r.Intervals {
		every := fmt.Sprint(pt.CheckpointEvery)
		if pt.CheckpointEvery < 0 {
			every = "never"
		}
		t.AddRow(every, pt.MediaMB, pt.Writes, pt.CheckpointFound,
			pt.ReplayedWrites, pt.ScannedPages, pt.RemountTime)
	}
	t.Render(w)
	fmt.Fprintln(w, "checkpoints bound replay: the map loads from the commit and only records")
	fmt.Fprintln(w, "sequenced after it replay from the OOB journal")
	fmt.Fprintln(w)

	t = trace.NewTable("Crash recovery — OOB scan cost vs media size (ckpt every 1024)",
		"media MB", "writes", "scanned pages", "recovered", "remount")
	for _, pt := range r.Scaling {
		t.AddRow(pt.MediaMB, pt.Writes, pt.ScannedPages, pt.RecoveredPages, pt.RemountTime)
	}
	t.Render(w)
	fmt.Fprintln(w, "the scan is parallel per die but still walks every written page's spare area;")
	fmt.Fprintln(w, "remount grows with occupied media, independent of the checkpoint interval")
}
