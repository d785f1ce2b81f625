// Package appset assembles the standard in-storage program set: the
// evaluation applications (gzip/gunzip, bzip2/bunzip2, grep, gawk), the
// shell, and the coreutils. The ISPS agent clones this registry per device;
// dynamic task loading adds to the clone at runtime.
package appset

import (
	"compstor/internal/apps"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/coreutils"
	"compstor/internal/apps/grepx"
	"compstor/internal/apps/gzipx"
	"compstor/internal/apps/shx"
)

// Base returns a registry holding every standard program. Its four codecs
// and gawk share one new memo, and Registry.Clone copies programs by value:
// the devices of a system built from one Base compute each distinct codec
// result and gawk tape once between them, and two Bases share nothing.
func Base() *apps.Registry {
	r := apps.NewRegistry()
	memo := apps.NewCodecMemo()
	gzip, gunzip := gzipx.Programs(memo)
	bzip2, bunzip2 := bzip2x.Programs(memo)
	for _, p := range []apps.Program{
		gzip,
		gunzip,
		bzip2,
		bunzip2,
		grepx.Grep{},
		awkx.Program(memo),
		shx.Shell{},
		coreutils.Cat{},
		coreutils.WC{},
		coreutils.Head{},
		coreutils.Tail{},
		coreutils.Sort{},
		coreutils.Uniq{},
		coreutils.Cut{},
		coreutils.Tr{},
		coreutils.Echo{},
		coreutils.Cksum{},
	} {
		r.Register(p)
	}
	return r
}
