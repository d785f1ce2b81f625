package grepx

// Thompson NFA construction and simulation.

type opcode int

const (
	opChar opcode = iota
	opAny
	opClass
	opSplit
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

// nfaRun is one parallel-state simulation: the program counters alive after
// the bytes stepped so far, and whether a match state is among them.
type nfaRun struct {
	prog      []inst
	cur, next []bool
	gen       []int // gen[pc] == genID: pc was already added for this byte
	genID     int
	matched   bool
}

// newRun starts a simulation at the pattern's entry point.
func (re *Regexp) newRun() nfaRun {
	n := len(re.prog)
	r := nfaRun{prog: re.prog, cur: make([]bool, n), next: make([]bool, n), gen: make([]int, n), genID: 1}
	r.add(r.cur, re.startPC)
	return r
}

// add puts pc — or, through a split, both of its branches — into set.
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
	r := re.newRun()
	if r.matched && (!re.anchorTail || len(line) == 0) {
		return true
	}
	restart := re.startPC
	if re.anchorHead {
		restart = -1
	}
	for i, c := range line {
		r.step(c, restart)
		if r.matched && (!re.anchorTail || i == len(line)-1) {
			return true
		}
	}
	return r.matched // tail-anchored: a match state alive at end of line
}
