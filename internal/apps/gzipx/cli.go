package gzipx

import (
	"compstor/internal/apps"
	"compstor/internal/cpu"
)

// Gzip is the `gzip` offloadable executable: it compresses each named file
// to <name>.gz. With no file arguments it filters stdin to stdout. Inputs
// are kept (the simulation datasets are reused across runs).
type Gzip struct{}

// Name implements apps.Program.
func (Gzip) Name() string { return "gzip" }

// Class implements apps.Program.
func (Gzip) Class() cpu.Class { return cpu.ClassGzip }

// Run implements apps.Program.
func (Gzip) Run(ctx *apps.Context, args []string) error {
	return apps.RunCodec(ctx, args, apps.Codec{Name: "gzip", Suffix: ".gz", Transform: Compress})
}

// Gunzip is the `gunzip` offloadable executable: it expands each named
// <name>.gz to <name>, or filters stdin with no arguments.
type Gunzip struct{}

// Name implements apps.Program.
func (Gunzip) Name() string { return "gunzip" }

// Class implements apps.Program.
func (Gunzip) Class() cpu.Class { return cpu.ClassGunzip }

// Run implements apps.Program.
func (Gunzip) Run(ctx *apps.Context, args []string) error {
	return apps.RunCodec(ctx, args, apps.Codec{Name: "gunzip", Suffix: ".gz", Expand: true, Transform: Decompress})
}
