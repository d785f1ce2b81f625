package bzip2x

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"compstor/internal/textgen"
)

// The hashes below were recorded from the encoder as it stood with the
// Manber-Myers rotation sort, its own set-carrying package-merge and a
// bytes.Buffer bit writer: Compress must keep producing exactly those bytes.

func TestCompressPinnedBooks(t *testing.T) {
	pins := []struct {
		seed int64
		size int // the first size bytes of the book: 99 999 and 100 001 straddle one block
		sum  string
	}{
		{1, 1024, "7eedee14b62f6e3d12a5b88c66c55fc36a51d8f7676987f6c083b16a04ae55f7"},
		{1, 28672, "df93601ba4d714704f08629aefdd23918993f8c993837fa27b835cba702f65ff"},
		{1, 99999, "bf69e3803def9c89154a3806bf5080f235d9872d7b3bb6f2f1c5af4c32ca51db"},
		{1, 100001, "9549c9649859850a8e1e8db15046384c60088a6fd13e689b4d07f419ff7d9a04"},
		{1, 1048576, "af8a4be5e91dd1ce276aa357e7f09f8335f6bec73a290ff8441c75bb82c5c9d4"},
		{2018, 1024, "4194b057e9e413139eda68ce85731b8ed47658743bfc786eb507bbf973d8a343"},
		{2018, 28672, "098f325df5bd432591c2db743c2375ba14b7f5df25e59e0d756e6308ab628ac6"},
		{2018, 99999, "1acfd8e8b39e941443fedb15622d9cc62d56e75830307a8dd4aa70f3f0e2cea2"},
		{2018, 100001, "31035d943e1329efc9db34ab6cedd01374678166b2d0acebc47753b83b454aa1"},
		{2018, 1048576, "e7e1cea963a2685325de9b22cba258a6a117addf53799640eed247ad87c8bb2c"},
		{424242, 1024, "edbc5c3d8a56a6500eba2e1c668dc187cb76a7a711c5d40bbadb01a325616599"},
		{424242, 28672, "c8da05ab9c8f2b5e19bdd351f33a728637c19cdf7d0b2c0939e8b46a1c2ce064"},
		{424242, 99999, "39799980d6dde0ea941fac626c7246fc86d86606885de58e6d2510cfb0f64295"},
		{424242, 100001, "2e7b0e07dc9a7723f1ecc6d62d9721826c18ff46642f1bb257f78943a764b699"},
		{424242, 1048576, "c62510df7db09f704de8b5b6e4b6c9f3a3c7ac431c1a819c8924ecb94a9aab54"},
	}
	// Small inputs after large ones and back again, so scratch left by one
	// call is what the next one starts from.
	for round := 0; round < 2; round++ {
		for _, p := range pins {
			out := Compress(textgen.Book(p.seed, p.size)[:p.size], Options{})
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != p.sum {
				t.Errorf("round %d: Book(%d)[:%d] compresses to sha256 %s, want %s", round, p.seed, p.size, got, p.sum)
			}
		}
	}
	// One 900 kB block and a short one after it.
	out := Compress(textgen.Book(1, 1<<20)[:1<<20], Options{Level: 9})
	const level9 = "3ef620930a722f1ae659ced7654df73e91efb896867dfa4132a17cad28d40a75"
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != level9 {
		t.Errorf("Book(1)[:1MiB] at level 9 compresses to sha256 %s, want %s", got, level9)
	}
}

func TestCompressPinnedCorpus(t *testing.T) {
	pins := map[string]string{
		"empty":    "c82685296a2d914c9acd6f6f6db1d1ad364f502b26af5e6ca8874c09880d5cf9",
		"periodic": "da7b1a8bd4b702ee5c05f5a7f63e4360bd3f2b4488473652fe00ec0308e09c9b",
		"random":   "6f7833f673db7602d9ce59ccc63d7300d1ae20773269dc0bf2b53095e260397d",
		"run259":   "1c1b254ea16942627c40af4c8891ebfb797d977c7bb779f8d2dc27d54a1c6dad",
		"run260":   "b0e45f21c0fc2e6230daf35f4c2d5664c10023585adac3180712fa2ac9dca581",
		"run4":     "ef5ba3dea38d13c7ddd2444ffcd7ed7c5d4eee1d07c44ab7e80fe94950ffeaae",
		"runs":     "e8e1dcd29098ee945bbb21e8d38763b6270e8ffc87904c32b4949dfc4a94f446",
		"single":   "f8309596482b62f4f303ba56e015986e465dd603f54c2dee63e5e00c38304e3b",
		"text":     "85e6d3ccd62163f41ece92487eafba65b0c150f551cda2efd53b2ccca6ec7e57",
		"tiny":     "9a0f2709695cccbe774b8118b241c6d520ebef767677d1d67a0ec78f2cc18322",
	}
	for name, data := range corpus() {
		out := Compress(data, Options{})
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != pins[name] {
			t.Errorf("%s compresses to sha256 %s, want %s", name, got, pins[name])
		}
	}
}
