package gzipx

import (
	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Gzip and Gunzip are the `gzip` and `gunzip` offloadable executables: an
// apps.Codec each, which has the command line. They stay two types with a
// Run of their own because the frozen bench/ attributes a CPU sample to the
// program whose "apps/<pkg>.<Type>.Run" frame is on its stack, and a method
// promoted from the embedded Codec leaves no frame.
type (
	Gzip   struct{ apps.Codec }
	Gunzip struct{ apps.Codec }
)

// Programs returns the pair computing through m (nil: every run computes).
func Programs(m *apps.CodecMemo) (Gzip, Gunzip) {
	gzip := func(data []byte) ([]byte, error) { return compress(data, m.Alloc("gzip", data)) }
	gunzip := func(data []byte) ([]byte, error) { return decompress(data, m.Alloc("gunzip", data)) }
	return Gzip{m.Bind(apps.Codec{ProgName: "gzip", CostClass: cpu.ClassGzip, Suffix: ".gz", Transform: gzip})},
		Gunzip{m.Bind(apps.Codec{ProgName: "gunzip", CostClass: cpu.ClassGunzip, Suffix: ".gz", Expand: true, Transform: gunzip})}
}

// Run implements apps.Program.
func (p Gzip) Run(ctx *apps.Context, args []string) error { return p.Codec.Run(ctx, args) }

// Run implements apps.Program.
func (p Gunzip) Run(ctx *apps.Context, args []string) error { return p.Codec.Run(ctx, args) }
