package core

import (
	"bytes"
	stdgzip "compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"compstor/internal/apps/appset"
	"compstor/internal/flash"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// TestEndToEndCompressedArtifact walks a complete production flow across
// every layer: the host stages a real book through NVMe into the FTL; a
// minion compresses it in-situ with the repository's own gzip; the host
// fetches the compressed artifact back through NVMe; and the reference
// (standard library) decoder verifies it bit-exactly. Any corruption in
// the filesystem, FTL, flash store, write-back cache, protocol DMA, or
// codec would break this.
func TestEndToEndCompressedArtifact(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	book := textgen.Book(99, 96<<10)
	var artifact []byte
	sys.Go("client", func(p *sim.Proc) {
		if err := unit.Client.FS().WriteFile(p, "in.txt", book); err != nil {
			t.Error(err)
			return
		}
		resp, err := unit.Client.Run(p, Command{
			Exec:        "gzip",
			Args:        []string{"in.txt"},
			InputFiles:  []string{"in.txt"},
			OutputFiles: []string{"in.txt.gz"},
		})
		if err != nil || resp.Status != StatusOK {
			t.Errorf("in-situ gzip: %v %+v", err, resp)
			return
		}
		data, err := unit.Client.FS().ReadFile(p, "in.txt.gz")
		if err != nil {
			t.Error(err)
			return
		}
		artifact = data
	})
	sys.Run()

	if len(artifact) == 0 {
		t.Fatal("no artifact")
	}
	if len(artifact) >= len(book) {
		t.Fatalf("artifact %d bytes >= input %d; not compressed", len(artifact), len(book))
	}
	zr, err := stdgzip.NewReader(bytes.NewReader(artifact))
	if err != nil {
		t.Fatalf("stdlib reader: %v", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("stdlib decode: %v", err)
	}
	if !bytes.Equal(got, book) {
		t.Fatal("round trip through the whole platform corrupted the data")
	}
}

// TestEndToEndScriptChain: a multi-stage script (compress → decompress →
// analyse) leaves the namespace consistent and returns the right answer.
func TestEndToEndScriptChain(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	book := textgen.Book(3, 32<<10)
	wantWords := len(bytes.Fields(book))
	var out string
	sys.Go("client", func(p *sim.Proc) {
		unit.Client.FS().WriteFile(p, "b.txt", book)
		resp, err := unit.Client.Run(p, Command{
			Script: `bzip2 b.txt ; bunzip2 b.txt.bz2 ; wc -w < b.txt`,
		})
		if err != nil || resp.Status != StatusOK {
			t.Errorf("script: %v %+v (%s)", err, resp, resp.Stderr)
			return
		}
		out = strings.TrimSpace(string(resp.Stdout))
	})
	sys.Run()
	got, err := strconv.Atoi(out)
	if err != nil || got != wantWords {
		t.Fatalf("word count %q, want %d", out, wantWords)
	}
}

// TestFTLSeesChurnFromInSituWork: sustained in-situ compress/trim cycles
// must drive garbage collection without corrupting later runs.
func TestFTLSeesChurnFromInSituWork(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	book := textgen.Book(5, 64<<10)
	sys.Go("client", func(p *sim.Proc) {
		unit.Client.FS().WriteFile(p, "w.txt", book)
		for i := 0; i < 30; i++ {
			resp, err := unit.Client.Run(p, Command{Script: `gzip w.txt`})
			if err != nil || resp.Status != StatusOK {
				t.Errorf("cycle %d: %v %+v", i, err, resp)
				return
			}
			if err := unit.Client.FS().WriteFile(p, "w.txt.gz", nil); err != nil { // trims the output's pages
				t.Errorf("cycle %d trim: %v", i, err)
				return
			}
		}
		// Final verification read.
		got, err := unit.Client.FS().ReadFile(p, "w.txt")
		if err != nil || !bytes.Equal(got, book) {
			t.Errorf("source corrupted after churn: %v", err)
		}
	})
	sys.Run()
	if unit.Drive.FTL().Stats().HostWrites == 0 {
		t.Fatal("no writes recorded")
	}
}

// TestForInOutputFileIsDeterministic: a tenant program that writes a file
// in for-in order is covered by same-seed-same-bytes like everything else —
// two fresh systems leave the same file at the same virtual time, and the
// file lists the words in the order the book first uses them.
func TestForInOutputFileIsDeterministic(t *testing.T) {
	book := textgen.Book(7, 8<<10)
	run := func() (string, sim.Time) {
		sys := newSystem(t, 1, false)
		unit := sys.Device(0)
		var out []byte
		sys.Go("client", func(p *sim.Proc) {
			if err := unit.Client.FS().WriteFile(p, "b.txt", book); err != nil {
				t.Error(err)
				return
			}
			resp, err := unit.Client.Run(p, Command{
				Exec:        "gawk",
				Args:        []string{`{ for (i = 1; i <= NF; i++) f[$i]++ } END { for (w in f) print w > "out" }`, "b.txt"},
				InputFiles:  []string{"b.txt"},
				OutputFiles: []string{"out"},
			})
			if err != nil || resp.Status != StatusOK {
				t.Errorf("in-situ gawk: %v %+v", err, resp)
				return
			}
			if out, err = unit.Client.FS().ReadFile(p, "out"); err != nil {
				t.Error(err)
			}
		})
		return string(out), sys.Run()
	}
	var want strings.Builder
	seen := map[string]bool{}
	for _, w := range strings.Fields(string(book)) {
		if !seen[w] {
			seen[w] = true
			want.WriteString(w + "\n")
		}
	}
	outA, endA := run()
	outB, endB := run()
	if outA != outB || endA != endB {
		t.Errorf("two runs at one seed: %d and %d bytes of output (equal: %v), ending at %v and %v", len(outA), len(outB), outA == outB, endA, endB)
	}
	if outA != want.String() {
		t.Errorf("out is not the book's words in first-use order: %d bytes, want %d", len(outA), want.Len())
	}
}

// TestConcurrentHostWritersOnAFullDrive is bench's ftl_churn drive with its
// writer split four ways: a conventional SSD of 16×4×16 blocks of 64 4 KiB
// pages at the default over-provisioning, filled to 80% through NVMe, then
// four concurrent queue-depth-1 writers of random overwrites, each owning
// the pages congruent to its index. No write may fail, GC must run, and
// every filled page must read back its last acknowledged version.
func TestConcurrentHostWritersOnAFullDrive(t *testing.T) {
	const (
		writers   = 4
		overwrite = 6000 // per writer
		batch     = 64   // pages per fill and verify command
	)
	geo := flash.Geometry{Channels: 16, DiesPerChan: 4, PlanesPerDie: 1, BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096}
	sys := NewSystem(SystemConfig{ConventionalSSD: true, Registry: appset.Base(), Geometry: geo})
	defer sys.Close()
	drv, ps := sys.Conventional.Driver(), sys.Conventional.PageSize()
	filled := int64(float64(sys.Conventional.FTL().LogicalPages()) * 0.8)
	version := make([]uint32, filled)
	stamp := func(page []byte, lba int64) {
		binary.LittleEndian.PutUint64(page, uint64(lba))
		binary.LittleEndian.PutUint32(page[8:], version[lba])
	}
	var failed error
	sys.Go("driver", func(p *sim.Proc) {
		buf := make([]byte, batch*ps)
		for lba := int64(0); lba < filled; lba += batch {
			n := min(batch, filled-lba)
			for i := int64(0); i < n; i++ {
				stamp(buf[i*int64(ps):], lba+i)
			}
			if failed = drv.Write(p, lba, buf[:n*int64(ps)]); failed != nil {
				return
			}
		}
		errs := make([]error, writers)
		p.Fork(writers, func(w int) string { return "writer-" + strconv.Itoa(w) }, func(wp *sim.Proc, w int) {
			rng := rand.New(rand.NewSource(int64(w) + 1))
			page := make([]byte, ps)
			for i := 0; i < overwrite; i++ {
				lba := rng.Int63n(filled/writers)*writers + int64(w)
				version[lba]++
				stamp(page, lba)
				if err := drv.Write(wp, lba, page); err != nil {
					errs[w] = fmt.Errorf("writer %d, overwrite %d (lba %d): %w", w, i, lba, err)
					return
				}
			}
		})
		if failed = errors.Join(errs...); failed != nil {
			return
		}
		for lba := int64(0); lba < filled; lba += batch {
			n := min(batch, filled-lba)
			if failed = drv.ReadInto(p, lba, buf[:n*int64(ps)]); failed != nil {
				return
			}
			for i := int64(0); i < n; i++ {
				got := buf[i*int64(ps):]
				if gotLBA, v := int64(binary.LittleEndian.Uint64(got)), binary.LittleEndian.Uint32(got[8:]); gotLBA != lba+i || v != version[lba+i] {
					failed = fmt.Errorf("lba %d holds lba %d version %d, last acknowledged %d", lba+i, gotLBA, v, version[lba+i])
					return
				}
			}
		}
	})
	sys.Run()
	st := sys.Conventional.FTL().Stats()
	if failed != nil {
		t.Fatalf("after %d GC runs: %v", st.GCRuns, failed)
	}
	if st.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	t.Logf("%d overwrites from %d writers, %d GC runs", writers*overwrite, writers, st.GCRuns)
}
