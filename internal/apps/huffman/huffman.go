// Package huffman builds the length-limited canonical prefix codes that the
// gzipx and bzip2x encoders share.
package huffman

import (
	"cmp"
	"slices"
)

// Scratch is CodeLengths's working memory. The zero value is ready; one
// kept beside its caller's other scratch grows to the largest alphabet it
// has served and allocates nothing after.
type Scratch struct {
	order, weights []int
	isPkg          []bool
}

// CodeLengths computes optimal length-limited Huffman code lengths for
// the given symbol frequencies using the package-merge algorithm, and
// returns them in dst resized to len(freq). Symbols with zero frequency get
// length 0. maxBits must satisfy 2^maxBits >= number of used symbols.
//
// Each of the maxBits levels is the list of single symbols, sorted once by
// (frequency, index), merged with the pairwise sums ("packages") of the
// level before; a single symbol goes ahead of a package of equal weight.
// Only the weights of one level and, per level, which positions hold
// packages are kept. A symbol's length is the number of levels in which it
// is among the items selected: the first 2n-2 of the last level, and below
// that the items the selected packages were built from.
func (s *Scratch) CodeLengths(dst, freq []int, maxBits int) []int {
	lengths := slices.Grow(dst[:0], len(freq))[:len(freq)]
	clear(lengths)
	order := s.order[:0] // used symbols by (frequency, index)
	for i, f := range freq {
		if f > 0 {
			order = append(order, i)
		}
	}
	s.order = order
	n := len(order)
	switch n {
	case 0:
		return lengths
	case 1:
		lengths[order[0]] = 1
		return lengths
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// A level holds fewer than 2n items: n symbols and half the level before.
	s.weights = slices.Grow(s.weights[:0], 4*n)[:4*n]
	prev, cur := s.weights[:n:2*n], s.weights[2*n:2*n]
	for i, sym := range order {
		prev[i] = freq[sym]
	}
	s.isPkg = slices.Grow(s.isPkg[:0], 2*n*maxBits)[:2*n*maxBits] // level l at [2n*l:]; level 0 has none
	isPkg := s.isPkg
	clear(isPkg)
	for l := 1; l < maxBits; l++ {
		flags := isPkg[2*n*l:]
		cur = cur[:0]
		for si, pi := 0, 0; si < n || pi+1 < len(prev); {
			if pi+1 >= len(prev) || (si < n && freq[order[si]] <= prev[pi]+prev[pi+1]) {
				cur = append(cur, freq[order[si]])
				si++
			} else {
				flags[len(cur)] = true
				cur = append(cur, prev[pi]+prev[pi+1])
				pi += 2
			}
		}
		prev, cur = cur, prev
	}

	take := min(2*n-2, len(prev))
	for l := maxBits - 1; l >= 0; l-- {
		pkgs := 0
		for _, p := range isPkg[2*n*l : 2*n*l+take] {
			if p {
				pkgs++
			}
		}
		for _, s := range order[:take-pkgs] {
			lengths[s]++
		}
		take = 2 * pkgs
	}
	return lengths
}

// CanonicalCodes assigns canonical Huffman codes (RFC 1951 §3.2.2) from
// code lengths (at most 32). Returned codes are in natural (MSB-first) bit
// order, which is how bzip2 stores them; DEFLATE reverses them.
func CanonicalCodes(lengths []int) []uint32 {
	var count, next [33]uint32 // per length: how many codes, then the next one
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < len(next); l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint32, len(lengths))
	for i, l := range lengths {
		if l > 0 {
			codes[i] = next[l]
			next[l]++
		}
	}
	return codes
}
