package cpu

// Calibration of the two platforms.
//
// The paper reports no absolute application throughputs — only energy per
// gigabyte (Fig 8) and relative claims. The calibration below therefore
// fixes the two free parameter sets so that the analytic energy
//
//	J/GB = FullLoadWatts / AggregateThroughput
//
// reproduces the paper's Fig 8 bars:
//
//	           CompStor(paper)  Xeon(paper)
//	gzip       880.9            1908
//	gunzip     177.6            522
//	bzip2      1462             2621.4
//	bunzip2    1717             4666
//	grep       68.5             222.7
//	gawk       89.17            295.4
//
// Power split (documented wall-measurement attribution):
//   - CompStor device under in-situ load: 3 W base (controller + DRAM +
//     flash standby) + 4 × 1 W per busy A53 core = 7 W.
//   - Host server attributable draw: 40 W base + 8 × 10 W per busy Xeon
//     core = 120 W.
//
// Throughputs are effective end-to-end rates (including memory and I/O
// stack overheads) normalised per byte of *plain* data — the only reading
// under which the paper's decompression J/GB numbers are physically
// consistent with any SSD's write bandwidth. Decompressors therefore
// charge by output size (apps.Codec.Run tops the auto-charged compressed
// input up to the plain size), which is why bunzip2 shows a lower rate
// than bzip2, exactly as in the paper's per-GB bars. Derived aggregate
// rates: e.g. CompStor gzip 7 W / 880.9 J/GB = 7.95 MB/s aggregate →
// ~2 MB/s per A53 core.
//
// Classes not measured by the paper (wc, sort, cat, default) use rates in
// proportion to the measured search/compress classes.

// ISPS returns the in-storage processing subsystem platform: quad-core ARM
// Cortex-A53 @ 1.5 GHz with 32 KB L1 caches, 1 MB L2 and 8 GB DDR4-2133
// (the paper's Table II).
func ISPS() *Platform {
	return &Platform{
		Name:            "ARM Cortex-A53 ISPS",
		Cores:           4,
		ClockGHz:        1.5,
		L1KB:            32,
		L2KB:            1024,
		Memory:          "8GB DDR4 @ 2133MT/s",
		MemBytes:        8 << 30,
		BaseWatts:       3.0,
		CoreActiveWatts: 1.0,
		perCore: map[Class]float64{
			ClassGzip:    1.99e6,
			ClassGunzip:  9.85e6,
			ClassBzip2:   1.20e6,
			ClassBunzip2: 1.02e6,
			ClassGrep:    25.5e6,
			ClassGawk:    19.6e6,
			ClassWC:      60e6,
			ClassSort:    5e6,
			ClassCat:     120e6,
			ClassDefault: 5e6,
		},
	}
}

// Xeon returns the host platform: Intel Xeon E5-2620 v4 (8 cores @ 2.1 GHz,
// 32 GB DDR4 — the paper's Table IV server).
func Xeon() *Platform {
	return &Platform{
		Name:            "Intel Xeon E5-2620 v4",
		Cores:           8,
		ClockGHz:        2.1,
		L1KB:            32,
		L2KB:            256,
		Memory:          "32 GB DDR4",
		MemBytes:        32 << 30,
		BaseWatts:       40.0,
		CoreActiveWatts: 10.0,
		perCore: map[Class]float64{
			ClassGzip:    7.86e6,
			ClassGunzip:  28.7e6,
			ClassBzip2:   5.72e6,
			ClassBunzip2: 3.21e6,
			ClassGrep:    67.4e6,
			ClassGawk:    50.8e6,
			ClassWC:      160e6,
			ClassSort:    16e6,
			ClassCat:     400e6,
			ClassDefault: 16e6,
		},
	}
}

// StreamCPUFraction returns the share of a class's calibrated end-to-end
// per-byte cost that is core-bound computation; the remainder is the memory
// and I/O-stack stall time the wall measurements behind the Fig 8 table
// could not separate from compute.
//
// The stock execution path charges the full end-to-end rate as core time
// while *also* paying the modelled flash reads, reproducing the paper's
// synchronous read loop (and its throughputs) exactly. The streaming read
// pipeline (ssd.Config.ReadPipeline) removes that double count: demand reads hit
// the ISPS-DRAM cache that the read-ahead prefetcher fills in the
// background, so the stall share turns into explicit, overlapped flash
// time and the core charge drops to the CPU share below. This is the
// effect HeydariGorji et al. (arXiv:2112.12415) measure when pipelining
// I/O with in-storage compute on real CSDs: scan-class tools roughly
// double their end-to-end rate because they were stall-dominated, while
// compressors barely move because they are genuinely compute-bound.
//
// Fractions are modelling choices, ordered by arithmetic intensity:
// pure data movement (cat) is almost all stall, pattern scan (grep) and
// field splitting (gawk/wc) sit in between, sort does real comparison
// work per byte, and the (de)compressors are pure CPU (fraction 1), which
// keeps the Fig 8 energy decomposition intact on the stock path.
func StreamCPUFraction(c Class) float64 {
	switch c {
	case ClassCat:
		return 0.25
	case ClassGrep:
		return 0.40
	case ClassGawk:
		return 0.45
	case ClassWC:
		return 0.50
	case ClassSort:
		return 0.70
	default:
		return 1.0
	}
}

// PaperFig8 returns the paper's reported J/GB for a class on each platform
// (compstor, xeon), with ok=false for classes the paper did not measure.
// It is used by tests and by EXPERIMENTS.md generation to compare measured
// against published values.
func PaperFig8(c Class) (compstor, xeon float64, ok bool) {
	table := map[Class][2]float64{
		ClassGzip:    {880.9, 1908},
		ClassGunzip:  {177.6, 522},
		ClassBzip2:   {1462, 2621.4},
		ClassBunzip2: {1717, 4666},
		ClassGrep:    {68.5, 222.7},
		ClassGawk:    {89.17, 295.4},
	}
	v, ok := table[c]
	return v[0], v[1], ok
}
