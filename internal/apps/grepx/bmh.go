package grepx

// bmhSearcher is an ASCII case-folding Boyer-Moore-Horspool literal
// searcher: the fast path for plain-literal `grep -i` patterns. Literals
// matched case-sensitively, which dominate the paper's IO-intensive search
// workloads, go through bytes.Index instead.
type bmhSearcher struct {
	pat  []byte // lower case
	skip [256]int
}

func newBMH(pattern []byte) *bmhSearcher {
	s := &bmhSearcher{pat: make([]byte, len(pattern))}
	for i, c := range pattern {
		s.pat[i] = lower(c)
	}
	m := len(s.pat)
	for i := range s.skip {
		s.skip[i] = m
	}
	for i := 0; i < m-1; i++ {
		s.skip[s.pat[i]] = m - 1 - i
		s.skip[upper(s.pat[i])] = m - 1 - i
	}
	return s
}

// find returns the index of the first occurrence of the pattern in text,
// in either case, or -1.
func (s *bmhSearcher) find(text []byte) int {
	m := len(s.pat)
	if m == 0 {
		return 0
	}
	n := len(text)
	i := 0
	for i+m <= n {
		j := m - 1
		for j >= 0 && lower(text[i+j]) == s.pat[j] {
			j--
		}
		if j < 0 {
			return i
		}
		i += s.skip[text[i+m-1]]
	}
	return -1
}
