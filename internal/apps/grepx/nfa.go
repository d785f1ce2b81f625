package grepx

// Thompson NFA construction and simulation.

type opcode int

const (
	opChar opcode = iota
	opAny
	opClass
	opSplit
	opBOL // zero-width: passes only at the start of the line
	opEOL // zero-width: passes only at the end of the line
	opMatch
)

type inst struct {
	op   opcode
	ch   byte
	cls  *class
	x, y int // successors (x primary, y for split)
}

// outRef identifies a dangling successor slot: instruction pc, field 'x' or
// 'y'. Indices stay valid across program growth (unlike raw pointers into
// the instruction slice, which reallocation would invalidate).
type outRef struct {
	pc    int
	field byte
}

// frag is a partial program with dangling out-slots to patch.
type frag struct {
	start int
	outs  []outRef
}

type builder struct {
	prog []inst
}

func (b *builder) emit(i inst) int {
	b.prog = append(b.prog, i)
	return len(b.prog) - 1
}

func (b *builder) patch(outs []outRef, target int) {
	for _, o := range outs {
		if o.field == 'x' {
			b.prog[o.pc].x = target
		} else {
			b.prog[o.pc].y = target
		}
	}
}

func (b *builder) compile(n *node) frag {
	switch n.kind {
	case nEmpty:
		// An epsilon: a split whose both arms dangle to the same target.
		pc := b.emit(inst{op: opSplit})
		return frag{start: pc, outs: []outRef{{pc, 'x'}, {pc, 'y'}}}
	case nChar:
		pc := b.emit(inst{op: opChar, ch: n.ch})
		return frag{start: pc, outs: []outRef{{pc, 'x'}}}
	case nAny:
		pc := b.emit(inst{op: opAny})
		return frag{start: pc, outs: []outRef{{pc, 'x'}}}
	case nBOL:
		pc := b.emit(inst{op: opBOL})
		return frag{start: pc, outs: []outRef{{pc, 'x'}}}
	case nEOL:
		pc := b.emit(inst{op: opEOL})
		return frag{start: pc, outs: []outRef{{pc, 'x'}}}
	case nClass:
		pc := b.emit(inst{op: opClass, cls: n.cls})
		return frag{start: pc, outs: []outRef{{pc, 'x'}}}
	case nConcat:
		f := b.compile(n.subs[0])
		for _, sub := range n.subs[1:] {
			g := b.compile(sub)
			b.patch(f.outs, g.start)
			f = frag{start: f.start, outs: g.outs}
		}
		return f
	case nAlt:
		fs := make([]frag, len(n.subs))
		for i, sub := range n.subs {
			fs[i] = b.compile(sub)
		}
		start := fs[len(fs)-1].start
		outs := append([]outRef{}, fs[len(fs)-1].outs...)
		for i := len(n.subs) - 2; i >= 0; i-- {
			pc := b.emit(inst{op: opSplit, x: fs[i].start, y: start})
			start = pc
			outs = append(outs, fs[i].outs...)
		}
		return frag{start: start, outs: outs}
	case nStar:
		f := b.compile(n.subs[0])
		pc := b.emit(inst{op: opSplit, x: f.start})
		b.patch(f.outs, pc)
		return frag{start: pc, outs: []outRef{{pc, 'y'}}}
	case nPlus:
		f := b.compile(n.subs[0])
		pc := b.emit(inst{op: opSplit, x: f.start})
		b.patch(f.outs, pc)
		return frag{start: f.start, outs: []outRef{{pc, 'y'}}}
	case nQuest:
		f := b.compile(n.subs[0])
		pc := b.emit(inst{op: opSplit, x: f.start})
		return frag{start: pc, outs: append(f.outs, outRef{pc, 'y'})}
	}
	panic("grepx: unknown node kind")
}

// compileNFA lowers the AST to a program ending in opMatch, returning the
// program and its entry point.
func compileNFA(ast *node) ([]inst, int) {
	b := &builder{}
	f := b.compile(ast)
	match := b.emit(inst{op: opMatch})
	b.patch(f.outs, match)
	return b.prog, f.start
}

// nfaRun is one parallel-state simulation over a line: the program counters
// alive at position pos, and whether a match state is among them.
type nfaRun struct {
	prog      []inst
	startPC   int
	cur, next []bool
	gen       []int // gen[pc] == genID: pc was already added at this position
	genID     int
	pos, end  int // bytes of the line stepped over so far, and its length
	matched   bool
}

// newRun returns a simulation of the pattern over a line of n bytes; startAt
// starts it.
func (re *Regexp) newRun(n int) *nfaRun {
	m := len(re.prog)
	return &nfaRun{prog: re.prog, startPC: re.startPC, cur: make([]bool, m), next: make([]bool, m), gen: make([]int, m), end: n}
}

// startAt (re)starts the simulation at the pattern's entry point, at byte at
// of the line.
func (r *nfaRun) startAt(at int) {
	clear(r.cur)
	r.genID++
	r.pos, r.matched = at, false
	r.add(r.cur, r.startPC)
}

// add puts pc — or, through a split or a passing anchor, its successors —
// into set.
func (r *nfaRun) add(set []bool, pc int) {
	if r.gen[pc] == r.genID {
		return
	}
	r.gen[pc] = r.genID
	switch r.prog[pc].op {
	case opSplit:
		r.add(set, r.prog[pc].x)
		r.add(set, r.prog[pc].y)
		return
	case opBOL, opEOL:
		if r.prog[pc].op == opBOL && r.pos == 0 || r.prog[pc].op == opEOL && r.pos == r.end {
			r.add(set, r.prog[pc].x)
		}
		return
	case opMatch:
		r.matched = true
	}
	set[pc] = true
}

// step consumes c and reports whether any state took it. A restart >= 0 is
// added to the states that follow: an unanchored search, where a match may
// start at the next position.
func (r *nfaRun) step(c byte, restart int) (alive bool) {
	r.genID++
	r.pos++
	r.matched = false
	cur, next := r.cur, r.next
	clear(next)
	for pc, on := range cur {
		if !on {
			continue
		}
		in := &r.prog[pc]
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
			r.add(next, in.x)
			alive = true
		}
	}
	if restart >= 0 {
		r.add(next, restart)
	}
	r.cur, r.next = next, cur
	return alive
}

// matchNFA reports whether the pattern matches anywhere in the line.
func (re *Regexp) matchNFA(line []byte) bool {
	r := re.newRun(len(line))
	r.startAt(0)
	restart := re.startPC
	if re.anchored {
		restart = -1
	}
	for _, c := range line {
		if r.matched {
			return true
		}
		if !r.step(c, restart) && re.anchored {
			return false // no state left, and none restarts
		}
	}
	return r.matched
}
