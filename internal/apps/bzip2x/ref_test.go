package bzip2x

import "sort"

// The functions below are what this package ran before the group-refining
// rotation sort, the shared package-merge and the fused decoder: they are
// the oracles the new code is compared against.

// refBWT computes the Burrows-Wheeler transform of block: the last column of
// the sorted cyclic-rotation matrix, plus the row index of the original
// string. Rotations are sorted by Manber-Myers prefix doubling with
// counting-sort passes — O(n log n) and independent of input pathology,
// which matters because bzip2's classic pointer sort is quadratic on
// repetitive inputs.
func refBWT(block []byte) (last []byte, origPtr int) {
	n := len(block)
	if n == 0 {
		return nil, 0
	}
	sa := make([]int, n)
	rank := make([]int, n)
	tmp := make([]int, n)
	bound := n + 1
	if bound < 257 {
		bound = 257
	}
	cnt := make([]int, bound)

	// radixPass stably sorts sa by key values in [0, width).
	radixPass := func(key []int, width int) {
		for i := 0; i < width; i++ {
			cnt[i] = 0
		}
		for _, s := range sa {
			cnt[key[s]]++
		}
		sum := 0
		for i := 0; i < width; i++ {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for _, s := range sa {
			tmp[cnt[key[s]]] = s
			cnt[key[s]]++
		}
		copy(sa, tmp)
	}

	for i := 0; i < n; i++ {
		sa[i] = i
		rank[i] = int(block[i])
	}
	radixPass(rank, 257)

	// Re-rank after the first character sort.
	newRank := make([]int, n)
	reRank := func(k int) int {
		newRank[sa[0]] = 0
		maxR := 0
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			same := rank[a] == rank[b]
			if same && k > 0 {
				same = rank[(a+k)%n] == rank[(b+k)%n]
			}
			if same {
				newRank[b] = newRank[a]
			} else {
				maxR++
				newRank[b] = maxR
			}
		}
		copy(rank, newRank)
		return maxR
	}
	maxR := reRank(0)

	secondKey := make([]int, n)
	for k := 1; maxR < n-1 && k <= n; k <<= 1 {
		for i := 0; i < n; i++ {
			secondKey[i] = rank[(i+k)%n]
		}
		radixPass(secondKey, maxR+2)
		radixPass(rank, maxR+2)
		maxR = reRank(k)
	}

	last = make([]byte, n)
	for i, s := range sa {
		last[i] = block[(s+n-1)%n]
		if s == 0 {
			origPtr = i
		}
	}
	return last, origPtr
}

// refInverseBWT reconstructs the original block from the last column and the
// original row pointer, using the standard T-vector walk.
func refInverseBWT(last []byte, origPtr int) []byte {
	n := len(last)
	if n == 0 {
		return nil
	}
	var counts [256]int
	for _, b := range last {
		counts[b]++
	}
	var base [256]int
	sum := 0
	for v := 0; v < 256; v++ {
		base[v] = sum
		sum += counts[v]
	}
	// next[i]: index in `last` of the row that follows row i's rotation.
	next := make([]int, n)
	var seen [256]int
	for i, b := range last {
		next[base[b]+seen[b]] = i
		seen[b]++
	}
	out := make([]byte, n)
	p := next[origPtr]
	for i := 0; i < n; i++ {
		out[i] = last[p]
		p = next[p]
	}
	return out
}

// refCodeLengths computes length-limited Huffman code lengths via
// package-merge. Every symbol is assigned a non-zero length (bzip2 tables
// must cover the whole block alphabet; zero-frequency symbols get the
// maximum length).
func refCodeLengths(freq []int, maxBits int) []int {
	adj := make([]int, len(freq))
	for i, f := range freq {
		if f == 0 {
			adj[i] = 1 // present with minimal weight
		} else {
			adj[i] = f + 1
		}
	}
	type item struct {
		w    int
		syms []int
	}
	level := make([]item, len(adj))
	for i, f := range adj {
		level[i] = item{w: f, syms: []int{i}}
	}
	sortItems := func(xs []item) {
		sort.SliceStable(xs, func(a, b int) bool { return xs[a].w < xs[b].w })
	}
	sortItems(level)
	prev := append([]item(nil), level...)
	for bit := 1; bit < maxBits; bit++ {
		var pkgs []item
		for i := 0; i+1 < len(prev); i += 2 {
			m := item{w: prev[i].w + prev[i+1].w}
			m.syms = append(append([]int(nil), prev[i].syms...), prev[i+1].syms...)
			pkgs = append(pkgs, m)
		}
		next := make([]item, 0, len(adj)+len(pkgs))
		for i, f := range adj {
			next = append(next, item{w: f, syms: []int{i}})
		}
		next = append(next, pkgs...)
		sortItems(next)
		prev = next
	}
	take := 2*len(adj) - 2
	lengths := make([]int, len(freq))
	for i := 0; i < take && i < len(prev); i++ {
		for _, s := range prev[i].syms {
			lengths[s]++
		}
	}
	if len(adj) == 1 {
		lengths[0] = 1
	}
	return lengths
}

// refRLE1Decode reverses the initial run-length encoding.
func refRLE1Decode(in []byte) ([]byte, error) {
	out := make([]byte, 0, len(in))
	i := 0
	for i < len(in) {
		b := in[i]
		run := 1
		for run < 4 && i+run < len(in) && in[i+run] == b {
			run++
		}
		if run == 4 {
			if i+4 >= len(in) {
				return nil, errCorrupt("truncated RLE1 run")
			}
			extra := int(in[i+4])
			for k := 0; k < 4+extra; k++ {
				out = append(out, b)
			}
			i += 5
		} else {
			out = append(out, in[i:i+run]...)
			i += run
		}
	}
	return out, nil
}
