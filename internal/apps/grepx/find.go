package grepx

// FindIndex returns the leftmost-longest match of the pattern in line that
// starts at or after from, as a [start, end) byte range, with ok=false when
// there is none. ^ and $ keep meaning the edges of line, so a search
// resumed past a match never re-anchors ^ there. It powers awk's
// sub/gsub/match/split, which need positions, not just a boolean.
func (re *Regexp) FindIndex(line []byte, from int) (start, end int, ok bool) {
	if re.literal != nil {
		if i := re.findLiteral(line[from:]); i >= 0 {
			return from + i, from + i + len(re.literal), true
		}
		return 0, 0, false
	}
	hi := len(line)
	if re.anchored {
		hi = 0
	}
	r := re.newRun(len(line))
	for s := from; s <= hi; s++ {
		if e, found := r.longestAt(line, s); found {
			return s, e, true
		}
	}
	return 0, 0, false
}

// longestAt runs the simulation anchored at byte s of line and returns the
// longest match end.
func (r *nfaRun) longestAt(line []byte, s int) (end int, ok bool) {
	r.startAt(s)
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
