// Command compstor-gendata synthesises the evaluation corpus to local
// files: deterministic English-like books (Zipf vocabulary), optionally
// pre-compressed with the repository's own gzip and bzip2 codecs — the
// stand-in for the paper's 348-book, 11.3 GB dataset.
//
// Usage:
//
//	compstor-gendata [-out DIR] [-books N] [-mean BYTES] [-seed N] [-gz] [-bz2]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/textgen"
)

func main() {
	out := flag.String("out", "corpus", "output directory")
	books := flag.Int("books", 348, "number of books")
	mean := flag.Int("mean", 32<<10, "book-size scale in bytes: sizes are uniform in 0.5–2× it, averaging 1.25×")
	seed := flag.Int64("seed", 2018, "corpus seed")
	gz := flag.Bool("gz", false, "also write .gz variants (own codec)")
	bz2 := flag.Bool("bz2", false, "also write .bz2 variants (own codec)")
	flag.Parse()

	files := textgen.Corpus(textgen.Config{Seed: *seed, Books: *books, MeanBookBytes: *mean})
	var total, totalGz, totalBz int64
	for _, f := range files {
		path := filepath.Join(*out, filepath.FromSlash(f.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, f.Data, 0o644); err != nil {
			fatal(err)
		}
		total += int64(len(f.Data))
		if *gz {
			z, err := gzipx.Compress(f.Data)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path+".gz", z, 0o644); err != nil {
				fatal(err)
			}
			totalGz += int64(len(z))
		}
		if *bz2 {
			z := bzip2x.Compress(f.Data, bzip2x.Options{})
			if err := os.WriteFile(path+".bz2", z, 0o644); err != nil {
				fatal(err)
			}
			totalBz += int64(len(z))
		}
	}
	fmt.Printf("wrote %d books (%d bytes plain", len(files), total)
	if *gz {
		fmt.Printf(", %d bytes gz", totalGz)
	}
	if *bz2 {
		fmt.Printf(", %d bytes bz2", totalBz)
	}
	fmt.Printf(") under %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
