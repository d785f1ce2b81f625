package core

import (
	"bytes"
	"sync"
	"testing"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// Testbeds are built, run and closed on two goroutines at once, so that
// drives hand their storage to each other through the spare lists while the
// other side runs (the race job checks the hand-off). Every file reads back
// as written, and after Close the drives' stats remain while their media is
// gone.
func TestSystemsBuildAndCloseConcurrently(t *testing.T) {
	data := bytes.Repeat([]byte("a page handed from one drive to the next\n"), 2000)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sys := newSystem(t, 1, true)
				var got []byte
				sys.Go("client", func(p *sim.Proc) {
					fs := sys.Device(0).Client.FS()
					if err := fs.WriteFile(p, "f.txt", data); err != nil {
						t.Error(err)
						return
					}
					if err := fs.Flush(p); err != nil {
						t.Error(err)
						return
					}
					var err error
					if got, err = fs.ReadFile(p, "f.txt"); err != nil {
						t.Error(err)
					}
				})
				sys.Run()
				sys.Close()
				if !bytes.Equal(got, data) {
					t.Errorf("read back %d bytes, wrote %d", len(got), len(data))
				}
				nand := sys.Device(0).Drive.Flash()
				if nand.Stats().Programs == 0 {
					t.Error("a closed drive's flash stats read zero programs")
				}
				if !panics(func() { nand.IsWritten(flash.Addr{}) }) {
					t.Error("a closed drive's media is still readable")
				}
			}
		}()
	}
	wg.Wait()
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
