package huffman

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCodeLengths is the package-merge gzipx shipped before the
// merge-based one: every item carries the set of symbols it covers and each
// level is re-sorted with a stable sort. It is the oracle for code lengths,
// and through them for every compressed byte.
func refCodeLengths(freq []int, maxBits int) []int {
	lengths := make([]int, len(freq))
	type sym struct {
		idx int
		f   int
	}
	var used []sym
	for i, f := range freq {
		if f > 0 {
			used = append(used, sym{i, f})
		}
	}
	switch len(used) {
	case 0:
		return lengths
	case 1:
		lengths[used[0].idx] = 1
		return lengths
	}
	type item struct {
		w    int
		syms []int // indices into used
	}
	level := make([]item, len(used))
	for i, s := range used {
		level[i] = item{w: s.f, syms: []int{i}}
	}
	sortItems := func(xs []item) {
		sort.SliceStable(xs, func(a, b int) bool { return xs[a].w < xs[b].w })
	}
	sortItems(level)
	prev := append([]item(nil), level...)
	for bit := 1; bit < maxBits; bit++ {
		var pkgs []item
		for i := 0; i+1 < len(prev); i += 2 {
			merged := item{w: prev[i].w + prev[i+1].w}
			merged.syms = append(append([]int(nil), prev[i].syms...), prev[i+1].syms...)
			pkgs = append(pkgs, merged)
		}
		next := make([]item, 0, len(used)+len(pkgs))
		for i, s := range used {
			next = append(next, item{w: s.f, syms: []int{i}})
		}
		next = append(next, pkgs...)
		sortItems(next)
		prev = next
	}
	take := 2*len(used) - 2
	counts := make([]int, len(used))
	for i := 0; i < take && i < len(prev); i++ {
		for _, s := range prev[i].syms {
			counts[s]++
		}
	}
	for i, s := range used {
		lengths[s.idx] = counts[i]
	}
	return lengths
}

// TestCodeLengthsMatchReference compares the two builders on frequency
// vectors rich in ties, where only the order of equal weights decides the
// lengths.
func TestCodeLengthsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1951))
	fib := func(n int) []int {
		f := make([]int, n)
		a, b := 1, 1
		for i := range f {
			f[i] = a
			if b < 1<<40 {
				a, b = b, a+b
			}
		}
		return f
	}
	fill := func(n int, gen func(i int) int) []int {
		f := make([]int, n)
		for i := range f {
			f[i] = gen(i)
		}
		return f
	}
	// DEFLATE's three alphabets at its two limits, then bzip2's largest and
	// smallest block alphabets at the 17 bits bzip2x asks for.
	alphabets := []struct{ n, maxBits int }{{286, 15}, {30, 15}, {30, 7}, {19, 15}, {19, 7}, {258, 17}, {3, 17}}
	for _, a := range alphabets {
		vectors := [][]int{
			make([]int, a.n),                              // nothing used
			fill(a.n, func(i int) int { return 1 }),       // all equal
			fill(a.n, func(i int) int { return 1 + i%2 }), // two-valued
			fill(a.n, func(i int) int { return 7 * (1 + (i/3)%2) }),
			fib(a.n),
			fill(a.n, func(i int) int { return i }),
		}
		single := make([]int, a.n)
		single[a.n/2] = 9
		vectors = append(vectors, single)
		rev := fib(a.n)
		slices.Reverse(rev)
		vectors = append(vectors, rev)
		for i := 0; i < 300; i++ {
			// Few distinct values, many zeros: ties everywhere.
			vals := 1 + rng.Intn(4)
			vectors = append(vectors, fill(a.n, func(int) int {
				if rng.Intn(3) == 0 {
					return 0
				}
				return 1 << uint(rng.Intn(vals)*rng.Intn(5))
			}))
			// Text-like: a steep, heavy-tailed distribution.
			vectors = append(vectors, fill(a.n, func(int) int { return int(rng.ExpFloat64() * rng.ExpFloat64() * 40) }))
		}
		for _, freq := range vectors {
			// Skip vectors the bit limit cannot hold.
			used := 0
			for _, f := range freq {
				if f > 0 {
					used++
				}
			}
			if used > 1<<uint(a.maxBits) {
				continue
			}
			got, want := new(Scratch).CodeLengths(nil, freq, a.maxBits), refCodeLengths(freq, a.maxBits)
			if !slices.Equal(got, want) {
				t.Fatalf("alphabet %d maxBits %d freq %v:\n got %v\nwant %v", a.n, a.maxBits, freq, got, want)
			}
		}
	}
}

// TestScratchReuseMatchesReference runs one Scratch, and one result slice,
// through alphabets of every size up to 300 and the three maxBits the
// encoders use, in shuffled order and with n = 0, 1 and 2 used symbols
// among them: what a bigger or deeper call leaves behind must not reach a
// later one.
func TestScratchReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2112))
	type job struct {
		freq    []int
		maxBits int
	}
	var jobs []job
	for _, maxBits := range []int{7, 15, 17} {
		for used := range 3 {
			freq := make([]int, 1+rng.Intn(40))
			for range used {
				freq[rng.Intn(len(freq))] += 1 + rng.Intn(9)
			}
			jobs = append(jobs, job{freq, maxBits})
		}
		for range 150 {
			freq := make([]int, 1+rng.Intn(300))
			used := 0
			for i := range freq {
				if rng.Intn(3) > 0 && used < 1<<maxBits {
					freq[i] = 1 + int(rng.ExpFloat64()*rng.ExpFloat64()*40)
					used++
				}
			}
			jobs = append(jobs, job{freq, maxBits})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var s Scratch
	var lengths []int
	for _, j := range jobs {
		lengths = s.CodeLengths(lengths, j.freq, j.maxBits)
		if want := refCodeLengths(j.freq, j.maxBits); !slices.Equal(lengths, want) {
			t.Fatalf("maxBits %d freq %v:\n got %v\nwant %v", j.maxBits, j.freq, lengths, want)
		}
	}
}
