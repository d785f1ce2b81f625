package awkx

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refArray is the awk array this package shipped before the table: a bare
// Go map, with the operations the interpreter made on it. A map has no
// order of its own, so beside it the oracle keeps the list the iteration
// contract defines: live keys by first insertion, a deleted key dropped and
// appended again if it returns.
type refArray struct {
	m     map[string]value
	order []string
}

func newRefArray() *refArray { return &refArray{m: make(map[string]value)} }

// get is an rvalue reference, which creates the element, as in awk.
func (r *refArray) get(k string) value {
	if !r.has(k) {
		r.set(k, uninitialized)
	}
	return r.m[k]
}

func (r *refArray) has(k string) bool {
	_, ok := r.m[k]
	return ok
}

func (r *refArray) set(k string, v value) {
	if !r.has(k) {
		r.order = append(r.order, k)
	}
	r.m[k] = v
}

func (r *refArray) del(k string) {
	if r.has(k) {
		delete(r.m, k)
		r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == k })
	}
}

func (r *refArray) clear() {
	clear(r.m)
	r.order = nil
}

// keys is the snapshot execForIn took at loop entry.
func (r *refArray) keys() []string { return slices.Clone(r.order) }

// checkTable compares a table with the oracle, element by element and in
// order, and checks what the table promises about itself: the index names
// exactly the live cells, tombstones are counted and never outnumber live
// cells once no loop holds them, and nothing lingers beyond len.
func checkTable(t *testing.T, name string, a *array, ref *refArray) {
	t.Helper()
	if a.length() != len(ref.m) || len(a.index) != len(ref.m) {
		t.Fatalf("%s: length %d, index %d, oracle %d", name, a.length(), len(a.index), len(ref.m))
	}
	var live []string
	dead := 0
	for i, c := range a.cells {
		if c.diedAt != 0 {
			dead++
			if c.val != (value{}) {
				t.Fatalf("%s: tombstone %d still holds %+v", name, i, c.val)
			}
			continue
		}
		live = append(live, c.key)
		if pos, ok := a.index[c.key]; !ok || int(pos) != i {
			t.Fatalf("%s: index[%q] = %d,%v, cell is at %d", name, c.key, pos, ok, i)
		}
		if c.val != ref.get(c.key) {
			t.Fatalf("%s[%q] = %+v, oracle %+v", name, c.key, c.val, ref.get(c.key))
		}
	}
	if !slices.Equal(live, ref.order) {
		t.Fatalf("%s: cell order %q, insertion order %q", name, live, ref.order)
	}
	if dead != a.dead || a.loops != 0 || a.dead > a.length() {
		t.Fatalf("%s: %d tombstones counted as %d beside %d live cells, %d loops open", name, dead, a.dead, a.length(), a.loops)
	}
	for _, c := range a.cells[len(a.cells):cap(a.cells)] {
		if c != (cell{}) {
			t.Fatalf("%s: %+v left beyond len", name, c)
		}
	}
}

// The programs FuzzAwkArrayOps writes use these two functions: an array
// parameter must alias the caller's table, and iterate like it.
const arrayOpsFuncs = `function bump(arr, k, v) { arr[k] += v; return length(arr) }
function walk(arr,   k, s) { for (k in arr) s = s k ","; return s }
`

var arrayOpsKeys = []string{"1", "2", "3", "k0", "k1", "k2"}

// arrayScript turns fuzz bytes, three per step, into an awk program over the
// arrays a and b and, by running the same steps on two oracles, the output
// that program must print.
type arrayScript struct {
	prog, want strings.Builder
	refs       map[string]*refArray
}

func (s *arrayScript) stmt(format string, args ...any) {
	fmt.Fprintf(&s.prog, format+"\n", args...)
}

func (s *arrayScript) step(op, kb, vb byte) {
	names := [2]string{"a", "b"}
	name, other := names[kb>>7], names[1-kb>>7]
	ref := s.refs[name]
	k := arrayOpsKeys[int(kb&0x7f)%len(arrayOpsKeys)]
	k2 := arrayOpsKeys[int(vb)%len(arrayOpsKeys)]
	v := float64(vb % 50)
	switch op % 15 {
	case 0:
		s.stmt(`%s["%s"] = %v`, name, k, v)
		ref.set(k, num(v))
	case 1:
		s.stmt(`print "g" %s["%s"]`, name, k)
		s.want.WriteString("g" + ref.get(k).Str() + "\n")
	case 2:
		s.stmt(`print "i" ("%s" in %s)`, k, name)
		s.want.WriteString("i" + boolNum(ref.has(k)).Str() + "\n")
	case 3:
		s.stmt(`delete %s["%s"]`, name, k)
		ref.del(k)
	case 4:
		s.stmt(`delete %s`, name)
		ref.clear()
	case 5:
		s.stmt(`print "l" length(%s)`, name)
		fmt.Fprintf(&s.want, "l%d\n", len(ref.m))
	case 6:
		words := []string{"w1", "w2", "w3", "w4"}[:vb%5]
		s.stmt(`print "s" split("%s", %s)`, strings.Join(words, " "), name)
		ref.clear()
		for i, w := range words {
			ref.set(fmt.Sprint(i+1), inputStr(w))
		}
		fmt.Fprintf(&s.want, "s%d\n", len(words))
	case 7:
		s.stmt(`%s["%s"]++`, name, k)
		ref.set(k, num(ref.get(k).Num()+1))
	case 8:
		s.stmt(`print "c" bump(%s, "%s", %v)`, name, k, v)
		ref.set(k, num(ref.get(k).Num()+v))
		fmt.Fprintf(&s.want, "c%d\n", len(ref.m))
	case 9:
		s.stmt(`print "w" walk(%s)`, name)
		s.want.WriteString("w")
		for _, key := range ref.keys() {
			s.want.WriteString(key + ",")
		}
		s.want.WriteString("\n")
	case 10: // a body that deletes one key and sets another
		s.stmt(`for (k in %[1]s) { printf "%%s=%%s,", k, %[1]s[k]; delete %[1]s["%[2]s"]; %[1]s["%[3]s"] = %[4]v }; print ""`, name, k, k2, v)
		for _, key := range ref.keys() {
			s.want.WriteString(key + "=" + ref.get(key).Str() + ",")
			ref.del(k)
			ref.set(k2, num(v))
		}
		s.want.WriteString("\n")
	case 11: // two loops over one array, both bodies mutating it
		s.stmt(`for (k in %[1]s) { for (j in %[1]s) { printf "%%s%%s,", k, j; delete %[1]s["%[2]s"] }; %[1]s["%[3]s"] = %[4]v }; print ""`, name, k, k2, v)
		for _, key := range ref.keys() {
			for _, j := range ref.keys() {
				s.want.WriteString(key + j + ",")
				ref.del(k)
			}
			ref.set(k2, num(v))
		}
		s.want.WriteString("\n")
	case 12: // a body that empties the array under the loop
		s.stmt(`for (k in %[1]s) { printf "%%s,", k; delete %[1]s; %[1]s["%[2]s"] = %[3]v }; print ""`, name, k2, v)
		for _, key := range ref.keys() {
			s.want.WriteString(key + ",")
			ref.clear()
			ref.set(k2, num(v))
		}
		s.want.WriteString("\n")
	case 13: // sub() creates the element it names, substituting or not (mawk)
		re, n, old := "zzz", 0, ref.get(k)
		if vb&1 == 1 {
			re, n = "^", 1
			ref.set(k, str("p"+old.Str()))
		}
		s.stmt(`print "u" sub(/%s/, "p", %s["%s"])`, re, name, k)
		fmt.Fprintf(&s.want, "u%d\n", n)
	case 14: // a loop over one array that fills the other, with a break
		s.stmt(`for (k in %[1]s) { if (k == "%[3]s") break; %[2]s[k] = %[1]s[k] }`, name, other, k)
		for _, key := range ref.keys() {
			if key == k {
				break
			}
			s.refs[other].set(key, ref.get(key))
		}
	}
}

// FuzzAwkArrayOps runs random array programs through the interpreter and
// through the map it used to be, and compares everything either can show:
// each printed result, each for-in sequence, and at the end the tables
// themselves.
func FuzzAwkArrayOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 3, 3, 10, 1, 4, 5, 0, 0, 3, 0, 0, 0, 0, 9, 9, 0, 0})
	f.Add([]byte{6, 0, 3, 11, 1, 0, 7, 2, 0, 8, 131, 7, 14, 1, 0, 12, 0, 5, 5, 0, 0, 1, 0, 0})
	f.Add([]byte{13, 0, 0, 13, 1, 1, 2, 0, 0, 2, 1, 0, 4, 0, 0, 6, 128, 4, 14, 133, 9, 9, 128, 0})
	f.Add([]byte{0, 3, 9, 0, 4, 8, 0, 5, 7, 3, 3, 0, 3, 4, 0, 0, 3, 1, 11, 4, 3, 10, 5, 5, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			return
		}
		s := arrayScript{refs: map[string]*refArray{"a": newRefArray(), "b": newRefArray()}}
		// A name is an array from its first use as one; before that a call
		// would pass it as a scalar.
		s.prog.WriteString(arrayOpsFuncs + "BEGIN {\ndelete a; delete b\n")
		for ; len(data) >= 3; data = data[3:] {
			s.step(data[0], data[1], data[2])
		}
		for _, name := range []string{"a", "b"} {
			s.stmt(`for (k in %[1]s) printf "%%s=%%s;", k, %[1]s[k]; print ""`, name)
			for _, key := range s.refs[name].order {
				s.want.WriteString(key + "=" + s.refs[name].get(key).Str() + ";")
			}
			s.want.WriteString("\n")
		}
		s.prog.WriteString("}\n")

		prog, err := parse(s.prog.String())
		if err != nil {
			t.Fatalf("%v\n%s", err, s.prog.String())
		}
		var out bytes.Buffer
		in := newInterp(prog, &out)
		defer in.release()
		// Not Run: that would hand the tables back before they can be read.
		if _, err := in.code.begins[0](in); err != nil {
			t.Fatalf("%v\n%s", err, s.prog.String())
		}
		if out.String() != s.want.String() {
			t.Fatalf("program\n%s\nprinted\n%s\nthe map oracle says\n%s", s.prog.String(), out.String(), s.want.String())
		}
		for name, ref := range s.refs {
			checkTable(t, name, in.arrays[prog.globals[name]], ref)
		}
	})
}

// A queue — insert at one end, delete at the other — is the delete-heavy
// shape: the table must stay the size of what is live, not of what has
// passed through it.
func TestArrayCompactsTombstones(t *testing.T) {
	const window = 100
	prog, err := parse(fmt.Sprintf(`BEGIN { for (i = 0; i < 1000000; i++) { q[n++] = i; if (n > %d) delete q[m++] } }`, window))
	if err != nil {
		t.Fatal(err)
	}
	in := newInterp(prog, &bytes.Buffer{})
	defer in.release()
	if _, err := in.code.begins[0](in); err != nil {
		t.Fatal(err)
	}
	q := in.arrays[prog.globals["q"]]
	if q.length() != window || len(q.cells) > 2*window+1 || cap(q.cells) > 4*window {
		t.Fatalf("after a million inserts and deletes with %d live: %d live, %d cells, capacity %d", window, q.length(), len(q.cells), cap(q.cells))
	}
	for i, c := range q.cells {
		if c.diedAt == 0 && int(q.index[c.key]) != i {
			t.Fatalf("index[%q] = %d, cell is at %d", c.key, q.index[c.key], i)
		}
	}
}

func TestOversizedArrayIsNotPooled(t *testing.T) {
	fill := func(n int) *array {
		a := arrayPool.Get().(*array)
		for i := 0; i < n; i++ {
			a.insert(fmt.Sprint("key", i), inputStr("some input"))
		}
		return a
	}
	big := fill(maxPooledCells + 1)
	big.release()
	if big.length() != maxPooledCells+1 {
		t.Fatalf("release reset a table of %d cells, so it pooled it", cap(big.cells))
	}
	// What does come back from the pool is empty and references nothing.
	fill(1000).release()
	for i := 0; i < 4; i++ {
		a := arrayPool.Get().(*array)
		if cap(a.cells) > maxPooledCells {
			t.Fatalf("the pool holds a table of %d cells", cap(a.cells))
		}
		checkTable(t, "pooled", a, newRefArray())
		if a.epoch != 0 || len(a.cells) != 0 {
			t.Fatalf("pooled table not reset: %+v", a)
		}
	}
}
