package bzip2x

import (
	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Bzip2 and Bunzip2 are the `bzip2` and `bunzip2` offloadable executables:
// an apps.Codec each, two types with a Run of their own for the reason
// gzipx.Gzip gives.
type (
	Bzip2   struct{ apps.Codec }
	Bunzip2 struct{ apps.Codec }
)

// Programs returns the pair computing through m (nil: every run computes).
func Programs(m *apps.CodecMemo) (Bzip2, Bunzip2) {
	bzip2 := func(data []byte) ([]byte, error) { return compress(data, Options{}, m.Alloc("bzip2", data)), nil }
	bunzip2 := func(data []byte) ([]byte, error) { return decompress(data, m.Alloc("bunzip2", data)) }
	return Bzip2{m.Bind(apps.Codec{ProgName: "bzip2", CostClass: cpu.ClassBzip2, Suffix: ".bz2", Transform: bzip2})},
		Bunzip2{m.Bind(apps.Codec{ProgName: "bunzip2", CostClass: cpu.ClassBunzip2, Suffix: ".bz2", Expand: true, Transform: bunzip2})}
}

// Run implements apps.Program.
func (p Bzip2) Run(ctx *apps.Context, args []string) error { return p.Codec.Run(ctx, args) }

// Run implements apps.Program.
func (p Bunzip2) Run(ctx *apps.Context, args []string) error { return p.Codec.Run(ctx, args) }
