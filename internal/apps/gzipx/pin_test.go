package gzipx

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"compstor/internal/textgen"
)

// The hashes below were recorded from the encoder as it stood before the
// linear-time Huffman builder, the table-driven symbol lookups and the
// recycled scratch: Compress must keep producing exactly those bytes.

func TestCompressPinnedBooks(t *testing.T) {
	pins := []struct {
		seed int64
		size int
		sum  string
	}{
		{1, 1024, "820e6dbc1b73c40f8a308dc679cf8cdfbbdb1a2f3c5c827d5ce0c737bb85354c"},
		{1, 28672, "2b6599e81cc17851291667dccfd0889cc8eacaeacd39e9c0b74c4636dc92453a"},
		{1, 1048576, "1be4a2cb033db0a18f0cb6fb0df4d385f61d305c662538f20cbfee573a2e1b9a"},
		{2018, 1024, "29a588c665eb1e7745bcc1f14ef0f73c209a2177d63f8f95b182166f1ddda512"},
		{2018, 28672, "075aeec08341069daabb9ff958bdaaca9da3c66586f7274eb9e13c247a7068d2"},
		{2018, 1048576, "8301d5df6790056fd7316e3b83121273b2fa8b8122a4561fc87a4fe7d03a60a5"},
		{424242, 1024, "3aff5d72bfe1a5b579e70d0a13dacf523270e116167391a6894711a49f607d2a"},
		{424242, 28672, "551cfd27ce84edd24842da3bb9ffc15eb4b8566a02c6b0e4352133edc99a3aaf"},
		{424242, 1048576, "50749c9c7bf2c389b6560f6916bb8f59ab3c55037696963ad5c9db46bcb9b53d"},
	}
	// Small inputs after large ones and back again, so scratch left by one
	// call is what the next one starts from.
	for round := 0; round < 2; round++ {
		for _, p := range pins {
			out, err := Compress(textgen.Book(p.seed, p.size))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != p.sum {
				t.Errorf("round %d: Book(%d, %d) compresses to sha256 %s, want %s", round, p.seed, p.size, got, p.sum)
			}
		}
	}
}

func TestCompressPinnedCorpus(t *testing.T) {
	pins := map[string]string{
		"aba":      "b803094176e8766e5e2058c09a9453fc092a5a70ad221b0f6b830d72dec0caf1",
		"empty":    "30e6fa98fb48c2b132824d1ac5e2243c0be9e9082ff32598d34d7687ca7f6c7f",
		"mixed":    "2d08501865f3c1bfde1c0e04d0beb37a1a4eef42d4ccf7a205b0d4b801492a29",
		"overlaps": "9970e08ce7fa54a5a778e92c2d603dafa03865a8a99acc3377796287144c6be4",
		"random":   "26f1fca981b3e4f2fd239dd2c07e4677bafc86f57b3773b47161b280306ca4a4",
		"runs":     "8c7a1c1714fad97a568edce263c3da532713ed6652dc509161d6cf5b2c2f3431",
		"single":   "1d1eaecd2e720e4e9281e837035a839a83742679fcd7b919a2b942f16844463a",
		"text":     "14ac176d71b8472e5f8c2ba9b0e2932fe1121649c18d8ff93d67ae1e9dbb9f34",
		"tiny":     "5ed7ce01ca84cc91fbddc99a55b4a4ba7d97708e06b4a9590435f30aaa8c3d17",
	}
	for name, data := range corpus() {
		out, err := Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != pins[name] {
			t.Errorf("%s compresses to sha256 %s, want %s", name, got, pins[name])
		}
	}
}
