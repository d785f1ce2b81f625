package grepx

// FindIndex returns the leftmost-longest match of the pattern in line as a
// [start, end) byte range, with ok=false when there is no match. It powers
// awk's sub/gsub/match builtins, which need positions, not just a boolean.
func (re *Regexp) FindIndex(line []byte) (start, end int, ok bool) {
	if re.literal != nil {
		if i := re.findLiteral(line); i >= 0 {
			return i, i + len(re.literal), true
		}
		return 0, 0, false
	}
	lo, hi := 0, len(line)
	if re.anchorHead {
		hi = 0
	}
	for s := lo; s <= hi; s++ {
		if e, found := re.matchLongestAt(line, s); found {
			if re.anchorTail && e != len(line) {
				continue
			}
			return s, e, true
		}
	}
	return 0, 0, false
}

// matchLongestAt simulates the NFA anchored at position s and returns the
// longest match end.
func (re *Regexp) matchLongestAt(line []byte, s int) (end int, ok bool) {
	r := re.newRun()
	if r.matched {
		end, ok = s, true
	}
	for i := s; i < len(line) && r.step(line[i], -1); i++ {
		if r.matched {
			end, ok = i+1, true
		}
	}
	return end, ok
}
