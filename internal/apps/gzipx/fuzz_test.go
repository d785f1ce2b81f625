package gzipx

import (
	"bytes"
	stdgzip "compress/gzip"
	"errors"
	"io"
	"testing"

	"compstor/internal/apps"
)

// FuzzGzipRoundTrip checks, for arbitrary payloads, that Compress produces
// a stream our Decompress and the stdlib reference both decode back to the
// input — and that Decompress never panics on arbitrary (corrupt) input,
// only errors. Chaos runs inject corruption into staged files; a codec that
// crashed or silently mis-decoded would masquerade as a fault-tolerance
// bug.
func FuzzGzipRoundTrip(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		out, err := Compress(src)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got, err := Decompress(out)
		if err != nil {
			t.Fatalf("decompress own stream: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
		zr, err := stdgzip.NewReader(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("stdlib reader rejects our stream: %v", err)
		}
		ref, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("stdlib decode: %v", err)
		}
		if !bytes.Equal(ref, src) {
			t.Fatalf("stdlib decodes to %d bytes, want %d", len(ref), len(src))
		}
		// The input interpreted as a stream must never crash the decoder;
		// a corrupt-stream error is the only acceptable failure.
		if dec, err := Decompress(src); err == nil && len(src) > 0 {
			_ = dec
		}
	})
}

// FuzzGunzipDecode feeds the decoder alone: whatever the bytes, Decompress
// returns data or an error, never both and never a panic; it accepts what
// the oracle (refDecompress) accepts, with the same output, fails with
// apps.ErrOutputLimit exactly when the oracle does, and agrees with the
// standard library wherever both accept. testdata/fuzz/FuzzGunzipDecode holds
// hand-made streams for the decoder's edges: a 15-bit code, an
// over-subscribed and an incomplete code set, a distance past the output
// start, a match with no distance code, a stored block's LEN/NLEN mismatch.
func FuzzGunzipDecode(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		ours, _ := Compress(data)
		streams := [][]byte{ours}
		// Stored, fixed-code (small inputs) and dynamic-code blocks.
		for _, level := range []int{stdgzip.NoCompression, stdgzip.BestSpeed, stdgzip.HuffmanOnly} {
			var buf bytes.Buffer
			zw, _ := stdgzip.NewWriterLevel(&buf, level)
			zw.Write(data)
			zw.Close()
			streams = append(streams, buf.Bytes())
		}
		// Every optional header field.
		var buf bytes.Buffer
		zw := stdgzip.NewWriter(&buf)
		zw.Extra, zw.Name, zw.Comment = []byte("ex"), "name", "comment"
		zw.Write(data)
		zw.Close()
		hcrc := append(append(bytes.Clone(ours[:10]), 0, 0), ours[10:]...)
		hcrc[3] |= flagFHCRC
		streams = append(streams, buf.Bytes(), hcrc)
		for _, z := range streams {
			f.Add(z)
			f.Add(z[:len(z)/2])
			f.Add(z[:len(z)-1])
			for _, bit := range []int{83, 8*len(z)/2 + 3, 8*len(z) - 70} {
				if bit >= 0 && bit < 8*len(z) {
					flipped := bytes.Clone(z)
					flipped[bit/8] ^= 1 << (bit % 8)
					f.Add(flipped)
				}
			}
			f.Add(append(bytes.Clone(z), ours...))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		got, err := Decompress(src)
		if err != nil && got != nil {
			t.Fatalf("data and an error: %d bytes, %v", len(got), err)
		}
		ref, refErr := refDecompress(src)
		if (err == nil) != (refErr == nil) || errors.Is(err, apps.ErrOutputLimit) != errors.Is(refErr, apps.ErrOutputLimit) {
			t.Fatalf("error %v, the oracle's %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("decoded %d bytes, the oracle %d", len(got), len(ref))
		}
		zr, err := stdgzip.NewReader(bytes.NewReader(src))
		if err != nil {
			return
		}
		if std, err := io.ReadAll(zr); err == nil && !bytes.Equal(got, std) {
			t.Fatalf("decoded %d bytes, stdlib %d", len(got), len(std))
		}
	})
}
