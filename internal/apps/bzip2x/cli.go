package bzip2x

import (
	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Bzip2 is the `bzip2` offloadable executable: it compresses each named
// file to <name>.bz2, or filters stdin with no arguments. Inputs are kept.
type Bzip2 struct {
	// Level is the block-size level (1..9); 0 selects the package default.
	Level int
}

// Name implements apps.Program.
func (Bzip2) Name() string { return "bzip2" }

// Class implements apps.Program.
func (Bzip2) Class() cpu.Class { return cpu.ClassBzip2 }

// Run implements apps.Program.
func (b Bzip2) Run(ctx *apps.Context, args []string) error {
	return apps.RunCodec(ctx, args, apps.Codec{Name: "bzip2", Suffix: ".bz2",
		Transform: func(data []byte) ([]byte, error) { return Compress(data, Options{Level: b.Level}), nil }})
}

// Bunzip2 is the `bunzip2` offloadable executable.
type Bunzip2 struct{}

// Name implements apps.Program.
func (Bunzip2) Name() string { return "bunzip2" }

// Class implements apps.Program.
func (Bunzip2) Class() cpu.Class { return cpu.ClassBunzip2 }

// Run implements apps.Program.
func (Bunzip2) Run(ctx *apps.Context, args []string) error {
	return apps.RunCodec(ctx, args, apps.Codec{Name: "bunzip2", Suffix: ".bz2", Expand: true, Transform: Decompress})
}
