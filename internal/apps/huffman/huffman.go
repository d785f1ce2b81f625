// Package huffman builds the length-limited canonical prefix codes that the
// gzipx and bzip2x encoders share.
package huffman

import (
	"cmp"
	"slices"
)

// CodeLengths computes optimal length-limited Huffman code lengths for
// the given symbol frequencies using the package-merge algorithm. Symbols
// with zero frequency get length 0. maxBits must satisfy
// 2^maxBits >= number of used symbols.
//
// Each of the maxBits levels is the list of single symbols, sorted once by
// (frequency, index), merged with the pairwise sums ("packages") of the
// level before; a single symbol goes ahead of a package of equal weight.
// Only the weights of one level and, per level, which positions hold
// packages are kept. A symbol's length is the number of levels in which it
// is among the items selected: the first 2n-2 of the last level, and below
// that the items the selected packages were built from.
func CodeLengths(freq []int, maxBits int) []int {
	lengths := make([]int, len(freq))
	order := make([]int, 0, len(freq)) // used symbols by (frequency, index)
	for i, f := range freq {
		if f > 0 {
			order = append(order, i)
		}
	}
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
	weights := make([]int, 4*n)
	prev, cur := weights[:n:2*n], weights[2*n:2*n]
	for i, s := range order {
		prev[i] = freq[s]
	}
	isPkg := make([]bool, 2*n*maxBits) // level l at [2n*l:]; level 0 has none
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
// code lengths. Returned codes are in natural (MSB-first) bit order, which is
// how bzip2 stores them; DEFLATE reverses them.
func CanonicalCodes(lengths []int) []uint32 {
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	blCount := make([]int, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	nextCode := make([]uint32, maxLen+2)
	var code uint32
	for bits := 1; bits <= maxLen; bits++ {
		code = (code + uint32(blCount[bits-1])) << 1
		nextCode[bits] = code
	}
	codes := make([]uint32, len(lengths))
	for i, l := range lengths {
		if l > 0 {
			codes[i] = nextCode[l]
			nextCode[l]++
		}
	}
	return codes
}
