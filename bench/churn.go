package main

import (
	"encoding/binary"
	"math/rand"
	"time"

	"compstor/internal/core"
	"compstor/internal/energy"
	"compstor/internal/flash"
	"compstor/internal/sim"
)

// ftl_churn sizes. One writer on purpose: several concurrent writers on a
// nearly full drive exhaust the FTL's spare blocks (README.md, known
// limits).
const (
	churnFill      = 0.80 // share of logical space written in set-up
	churnWrites    = 40000
	churnReadRate  = 4000 // reads per virtual second, frozen
	churnFillBatch = 64   // pages per set-up write command
)

// churnGeometry is a 256 MiB drive: small enough that 40k overwrites wrap
// the spare area many times, so garbage collection runs throughout.
var churnGeometry = flash.Geometry{
	Channels: 16, DiesPerChan: 4, PlanesPerDie: 1, BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096,
}

// stampPage writes the page's identity and version into its first bytes.
func stampPage(page []byte, lba int64, version uint32) {
	binary.LittleEndian.PutUint64(page, uint64(lba))
	binary.LittleEndian.PutUint32(page[8:], version)
}

// churnRep drives a conventional SSD through the host NVMe path only — no
// ISPS, no application kernel: one queue-depth-1 writer overwrites random
// 4 KiB pages of an 80%-full drive while an open loop reads random pages at
// a frozen rate. Every page carries its version, so each read is checked.
func churnRep(r *rep) {
	r.clock.enter(phaseSetup)
	// WithHost meters the idle Xeon that would be issuing this I/O; it runs
	// no task here.
	geo := churnGeometry
	geo.BlocksPerPlan = r.scaled(geo.BlocksPerPlan, 8)
	sys := r.system("churn", core.SystemConfig{ConventionalSSD: true, WithHost: true, Geometry: geo})
	drv := sys.Conventional.Driver()
	pageSize := sys.Conventional.PageSize()
	filled := int64(float64(sys.Conventional.FTL().LogicalPages()) * churnFill)
	writes := r.scaled(churnWrites, 400)

	// acked[lba] is the last version whose write completed; issued[lba] the
	// last version handed to the drive. They differ only for the one page
	// the writer has in flight.
	acked := make([]uint32, filled)
	issued := make([]uint32, filled)
	var lat []float64
	var reads int64
	var span sim.Duration
	var joules float64
	writerDone := false

	sys.Go("driver", func(p *sim.Proc) {
		buf := make([]byte, churnFillBatch*pageSize)
		for lba := int64(0); lba < filled; lba += churnFillBatch {
			n := int64(churnFillBatch)
			if lba+n > filled {
				n = filled - lba
			}
			for i := int64(0); i < n; i++ {
				stampPage(buf[int(i)*pageSize:], lba+i, 1)
				acked[lba+i], issued[lba+i] = 1, 1
			}
			if err := drv.Write(p, lba, buf[:int(n)*pageSize]); err != nil {
				r.fail(1, "ftl_churn: fill at lba %d: %v", lba, err)
				return
			}
		}
		if err := drv.Flush(p); err != nil {
			r.fail(1, "ftl_churn: fill flush: %v", err)
			return
		}

		r.clock.enter(phaseMeasured)
		sp := r.tr.begin("churn/overwrite+read", p.Now())
		t0, j0 := p.Now(), totalJoules(sys)

		// Open-loop reader: Poisson arrivals at the frozen rate. Each read
		// is its own process, issued at its due instant whatever the drive
		// is doing, and timed from that instant.
		sys.Go("reader", func(gp *sim.Proc) {
			rng := rand.New(rand.NewSource(r.seed ^ 0x72656164))
			due := gp.Now()
			for {
				due = due.Add(time.Duration(rng.ExpFloat64() / churnReadRate * 1e9))
				gp.WaitUntil(due)
				if writerDone {
					return
				}
				lba := rng.Int63n(filled)
				reads++
				sys.Go("read", func(rp *sim.Proc) {
					start, lo := rp.Now(), acked[lba]
					data, err := drv.Read(rp, lba, 1)
					r.attempted++
					if err != nil {
						r.fail(1, "ftl_churn: read lba %d: %v", lba, err)
						return
					}
					gotLBA := int64(binary.LittleEndian.Uint64(data))
					got := binary.LittleEndian.Uint32(data[8:])
					if gotLBA != lba || got < lo || got > issued[lba] {
						r.fail(1, "ftl_churn: read lba %d returned page %d version %d, want version %d..%d",
							lba, gotLBA, got, lo, issued[lba])
					}
					lat = append(lat, ms(rp.Now().Sub(start)))
				})
			}
		})

		rng := rand.New(rand.NewSource(r.seed ^ 0x77726974))
		page := make([]byte, pageSize)
		for i := 0; i < writes; i++ {
			lba := rng.Int63n(filled)
			issued[lba]++
			stampPage(page, lba, issued[lba])
			r.attempted++
			if err := drv.Write(p, lba, page); err != nil {
				r.fail(1, "ftl_churn: overwrite %d at lba %d: %v", i, lba, err)
				break
			}
			acked[lba] = issued[lba]
		}
		writerDone = true
		span = p.Now().Sub(t0)
		joules = totalJoules(sys) - j0
		sp.end(p.Now())
		r.clock.enter(phaseOff)
	})
	end := r.finish(sys)
	if r.failed > 0 {
		return
	}

	moved := (int64(writes) + reads) * int64(pageSize)
	r.sim["sim_mbps"] = mbps(moved, span)
	r.sim["sim_j_per_gb"] = energy.JoulesPerGB(joules, moved)
	r.sim["energy.host_j"] = joules
	r.latency("sim_mean_ms", "sim_p99_ms", lat)
	st := sys.Conventional.FTL().Stats()
	r.sim["ftl.waf"] = st.WriteAmplification()
	r.sim["ftl.gc_runs"] = float64(st.GCRuns)
	r.hash("churn.end", end)
	r.hash("churn.ftl", st)
	r.hash("churn.nvme", sys.Conventional.Controller().Stats())
	r.hash("churn.reads", []int64{reads, int64(len(lat))})
}
