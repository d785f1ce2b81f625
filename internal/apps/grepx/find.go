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
	prog := re.prog
	n := len(prog)
	cur := make([]bool, n)
	next := make([]bool, n)
	gen := make([]int, n)
	genID := 0

	var addState func(set []bool, pc int)
	addState = func(set []bool, pc int) {
		if gen[pc] == genID {
			return
		}
		gen[pc] = genID
		if prog[pc].op == opSplit {
			addState(set, prog[pc].x)
			addState(set, prog[pc].y)
			return
		}
		set[pc] = true
	}
	matched := func(set []bool) bool {
		for pc, on := range set {
			if on && prog[pc].op == opMatch {
				return true
			}
		}
		return false
	}

	genID++
	addState(cur, re.startPC)
	if matched(cur) {
		end, ok = s, true
	}
	for i := s; i < len(line); i++ {
		c := line[i]
		genID++
		for j := range next {
			next[j] = false
		}
		alive := false
		for pc, on := range cur {
			if !on {
				continue
			}
			in := prog[pc]
			hit := false
			switch in.op {
			case opChar:
				hit = in.ch == c
			case opAny:
				hit = true
			case opClass:
				hit = in.cls.has(c)
			}
			if hit {
				addState(next, in.x)
				alive = true
			}
		}
		cur, next = next, cur
		if !alive {
			break
		}
		if matched(cur) {
			end, ok = i+1, true
		}
	}
	return end, ok
}
