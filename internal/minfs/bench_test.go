package minfs

import (
	"testing"

	"compstor/internal/sim"
)

// BenchmarkViewReadFile reads a 1 MiB file whole through a view, once over a
// device with the PageReaderInto capability (pages land in the result) and
// once over a three-method device (the fallback copy).
func BenchmarkViewReadFile(b *testing.B) {
	for _, c := range []struct {
		name string
		wrap func(BlockDevice) BlockDevice
	}{
		{"into", func(d BlockDevice) BlockDevice { return d }},
		{"fallback", func(d BlockDevice) BlockDevice { return threeMethodDevice{d} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			const ps, size = 4096, 1 << 20
			eng := sim.NewEngine()
			v := NewView(NewFS(ps, 4096), c.wrap(fuzzDevice{memDevice: newMemDevice(ps, 4096)}))
			b.SetBytes(size)
			b.ReportAllocs()
			eng.Go("fs", func(p *sim.Proc) {
				if err := v.WriteFile(p, "f", fuzzBytes(1, size)); err != nil {
					b.Error(err)
					return
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.ReadFile(p, "f"); err != nil {
						b.Error(err)
						return
					}
				}
			})
			eng.Run()
		})
	}
}
