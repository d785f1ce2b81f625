package apps

import (
	"io"
	"strings"
)

// Codec is one direction of a whole-buffer compressor, as RunCodec drives
// it: gzip, gunzip, bzip2 and bunzip2 differ only in these four values.
type Codec struct {
	// Name is the program name, the prefix of its error messages.
	Name string
	// Suffix is the compressed file's extension (".gz").
	Suffix string
	// Expand marks the decompressing direction: output names lose Suffix
	// instead of gaining it, and the compute charge is topped up (below).
	Expand bool
	// Transform maps a file's whole content to its (de)compressed form.
	Transform func(data []byte) ([]byte, error)
}

// RunCodec is the command line the four codec programs share: each named
// file is transformed into its sibling (name <-> name+Suffix), or, with no
// file arguments, stdin is filtered to stdout. Inputs are kept (the
// simulation datasets are reused across runs).
func RunCodec(ctx *Context, args []string, c Codec) error {
	transform := func(data []byte) ([]byte, error) {
		out, err := c.Transform(data)
		if err == nil && c.Expand {
			// Decompression cost is calibrated per plain byte; top up from
			// the auto-charged compressed input to the plain output size.
			ChargeExtra(ctx, int64(len(out)-len(data)))
		}
		return out, err
	}
	if len(args) == 0 {
		data, err := io.ReadAll(ctx.In())
		if err != nil {
			return err
		}
		out, err := transform(data)
		if err != nil {
			return err
		}
		_, err = ctx.Stdout.Write(out)
		return err
	}
	for _, name := range args {
		data, err := readFileCharged(ctx, name)
		if err != nil {
			return Exitf(1, "%s: %v", c.Name, err)
		}
		out, err := transform(data)
		if err != nil {
			return Exitf(1, "%s: %s: %v", c.Name, name, err)
		}
		dst := name + c.Suffix
		if c.Expand {
			dst = strings.TrimSuffix(name, c.Suffix)
		}
		if err := writeFile(ctx, dst, out); err != nil {
			return Exitf(1, "%s: %v", c.Name, err)
		}
	}
	return nil
}

// readFileCharged reads a whole file through the charging path.
func readFileCharged(ctx *Context, name string) ([]byte, error) {
	f, err := ctx.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func writeFile(ctx *Context, name string, data []byte) error {
	f, err := ctx.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
