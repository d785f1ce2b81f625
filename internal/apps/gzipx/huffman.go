package gzipx

// hDecoder decodes canonical Huffman codes bit-by-bit using the counts/
// symbols construction (as in Mark Adler's puff).
type hDecoder struct {
	count []int // number of codes of each length
	sym   []int // symbols ordered by code
}

// newHDecoder builds a decoder from code lengths. It returns nil if the
// lengths are not a valid (complete or single-code) Huffman set.
func newHDecoder(lengths []int) *hDecoder {
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	d := &hDecoder{count: make([]int, maxLen+1)}
	n := 0
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
			n++
		}
	}
	if n == 0 {
		return nil
	}
	// Check for over-subscription.
	left := 1
	for l := 1; l <= maxLen; l++ {
		left <<= 1
		left -= d.count[l]
		if left < 0 {
			return nil
		}
	}
	offs := make([]int, maxLen+2)
	for l := 1; l <= maxLen; l++ {
		offs[l+1] = offs[l] + d.count[l]
	}
	d.sym = make([]int, n)
	for i, l := range lengths {
		if l > 0 {
			d.sym[offs[l]] = i
			offs[l]++
		}
	}
	return d
}

// decode reads one symbol from the bit reader.
func (d *hDecoder) decode(br *bitReader) (int, error) {
	var code, first, index int
	for l := 1; l < len(d.count); l++ {
		bit, err := br.readBits(1)
		if err != nil {
			return 0, err
		}
		code |= int(bit)
		cnt := d.count[l]
		if code-first < cnt {
			return d.sym[index+code-first], nil
		}
		index += cnt
		first = (first + cnt) << 1
		code <<= 1
	}
	return 0, errCorrupt("invalid Huffman code")
}
