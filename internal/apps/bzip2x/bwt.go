package bzip2x

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	// seedBytes is how many leading bytes the radix sort orders rotations
	// by before prefix doubling takes over: what one load compares. A pass
	// over everything costs less than refining the groups it splits.
	seedBytes = 8
	// A tied group is sorted as words of (key, rotation index), key above
	// index, so that ordering the words orders the rotations by key and
	// equal keys by ascending index, with any sorting method. A key is a
	// group number; twenty bits hold either in the largest block (900 000
	// bytes).
	idxBits = 20
	idxMask = 1<<idxBits - 1
)

// bwt computes the Burrows-Wheeler transform of block into c.last: the last
// column of the sorted cyclic-rotation matrix; it returns the row of the
// original string. Identical rotations (a block that is a power of a shorter
// word) are ordered by ascending start index.
//
// An LSD radix sort orders the rotations by their first seedBytes bytes and
// cuts them into groups with equal keys. Each group still tied is then
// refined by prefix doubling as Larsson and Sadakane do it: with every
// group equal on its first h bytes, the group of the rotation h further on
// is a key for the next h bytes. Only tied groups are visited, a group is
// sorted in time linear in its size (a constant factor more below the radix
// threshold) and h doubles, so the whole is O(n log n) whatever the input —
// where bzip2's classic pointer sort is quadratic on repetitive blocks —
// while text, shallow as it is, leaves little after the first rounds.
func (c *compressor) bwt(block []byte) (origPtr int) {
	n := len(block)
	c.last = sized(c.last, n)
	if n == 0 {
		return 0
	}
	c.words = sized(c.words, n)
	c.alt = sized(c.alt, n)
	c.sa = sized(c.sa, n)
	c.sa2 = sized(c.sa2, n)
	c.group = sized(c.group, n)

	c.seedSort(block)
	h := seedBytes
	for ; len(c.tied) > 0 && h < n; h *= 2 {
		next := c.spare[:0]
		for i := 0; i < len(c.tied); i += 2 {
			next = c.refine(int(c.tied[i]), int(c.tied[i+1]), h, next)
		}
		c.tied, c.spare = next, c.tied
	}

	for i, s := range c.sa {
		if s == 0 {
			origPtr = i
			s = int32(n)
		}
		c.last[i] = block[s-1]
	}
	return origPtr
}

// seedSort fills c.sa with the rotations ordered by (first seedBytes bytes,
// index), c.group with the position in c.sa at which each rotation's group
// starts, and c.tied with the [lo, hi) bounds of the groups of two or more.
func (c *compressor) seedSort(block []byte) {
	n := len(block)
	// The block runs on into its own start, so that every rotation's first
	// seedBytes bytes lie in a row.
	ext := append(sized(c.ext, n+seedBytes)[:0], block...)
	for j := 0; j < seedBytes; j++ {
		ext = append(ext, ext[j])
	}
	c.ext = ext
	// Each byte of the block is the d-th of exactly one rotation: one
	// histogram serves every pass of the LSD radix sort.
	var first [256]int32
	for _, b := range block {
		first[b]++
	}
	sum := int32(0)
	for v, k := range first {
		first[v] = sum
		sum += k
	}
	from, to := c.sa, c.sa2
	for i := range from {
		from[i] = int32(i)
	}
	for d := seedBytes - 1; d >= 0; d-- {
		// The column is sliced once per pass and the cursor kept in a local:
		// indexing ext[int(s)+d] and bumping next[b] in memory made a loop
		// body of three cache lines, a third slower at 0 than at 32 mod 64.
		next, col := first, ext[d:d+n]
		for _, s := range from {
			b := col[uint32(s)]
			p := next[b]
			next[b] = p + 1
			to[uint32(p)] = s
		}
		from, to = to, from
	}
	c.sa, c.sa2 = from, to

	seed := func(s int32) uint64 { return binary.BigEndian.Uint64(ext[s:]) }
	c.tied = c.tied[:0]
	lo, key := 0, seed(c.sa[0])
	for i, s := range c.sa {
		if k := seed(s); k != key {
			if i-lo > 1 {
				c.tied = append(c.tied, int32(lo), int32(i))
			}
			lo, key = i, k
		}
		c.group[s] = int32(lo)
	}
	if n-lo > 1 {
		c.tied = append(c.tied, int32(lo), int32(n))
	}
}

// refine sorts the group c.sa[lo:hi], whose rotations agree on their first
// h bytes, by the group of the rotation h further on, renumbers the groups
// it falls into and appends those of two or more to tied. A group's number
// is where it starts in c.sa, so numbers given earlier stay in order with
// the new ones, and other groups may read them as soon as they are written.
func (c *compressor) refine(lo, hi, h int, tied []int32) []int32 {
	sa, group := c.sa[lo:hi], c.group
	n := int32(len(group))
	words := c.words[:len(sa)]
	var differ uint64
	for j, s := range sa {
		t := s + int32(h)
		if t >= n {
			t -= n
		}
		words[j] = uint64(group[t])<<idxBits | uint64(s)
		differ |= words[j] ^ words[0]
	}
	if differ>>idxBits == 0 {
		return append(tied, int32(lo), int32(hi))
	}
	// The group is in index order, so a stable radix sort need only look at
	// the key bits: two digits of half the bits a group number can take.
	if digit := uint(bits.Len32(uint32(n-1))+1) / 2; len(sa) >= 1<<digit {
		radixSort2(words, c.alt[:len(sa)], idxBits, digit)
	} else {
		slices.Sort(words)
	}
	start := lo
	for j, w := range words {
		if w>>idxBits != words[start-lo]>>idxBits {
			if lo+j-start > 1 {
				tied = append(tied, int32(start), int32(lo+j))
			}
			start = lo + j
		}
		s := int32(w & idxMask)
		sa[j] = s
		group[s] = int32(start)
	}
	if hi-start > 1 {
		tied = append(tied, int32(start), int32(hi))
	}
	return tied
}

// radixSort2 stably sorts words by the 2*digit bits above shift, digit at
// most 10, through tmp and back.
func radixSort2(words, tmp []uint64, shift, digit uint) {
	var count [2][1 << 10]int32
	mask := uint64(1)<<digit - 1
	for _, w := range words {
		count[0][w>>shift&mask]++
		count[1][w>>(shift+digit)&mask]++
	}
	for d := range count {
		cnt := count[d][:mask+1]
		sum := int32(0)
		for v, k := range cnt {
			cnt[v] = sum
			sum += k
		}
		for _, w := range words {
			b := w >> shift & mask
			tmp[cnt[b]] = w
			cnt[b]++
		}
		words, tmp = tmp, words
		shift += digit
	}
}
