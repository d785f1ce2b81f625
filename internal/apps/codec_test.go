package apps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"runtime"
	"sync"
	"testing"
)

// countingCodec doubles every byte; calls counts its transforms.
func countingCodec(calls *int) Codec {
	return Codec{ProgName: "dbl", Transform: func(data []byte) ([]byte, error) {
		*calls++
		out := make([]byte, 0, 2*len(data))
		for _, b := range data {
			out = append(out, b, b)
		}
		return out, nil
	}}
}

// transform is what c computes for data, run as a filter through m.
func (m *CodecMemo) transform(c Codec, data []byte) ([]byte, error) {
	var out bytes.Buffer
	c.memo = m
	err := c.Run(&Context{Stdin: bytes.NewReader(data), Stdout: &out}, nil)
	return out.Bytes(), err
}

func (m *CodecMemo) key(c Codec, data []byte) memoKey {
	return memoKey{c.ProgName, maphash.Bytes(m.seed, data)}
}

// Admission is on second sight: the first transform of an input leaves its
// key alone, the second keeps the caller's slices, later ones hit; and a
// codec bound to no memo computes every time.
func TestCodecMemoSecondSight(t *testing.T) {
	var calls int
	m := NewCodecMemo()
	c := m.Bind(countingCodec(&calls))
	in := []byte("abc")
	for i := 1; i <= 5; i++ {
		out, err := m.transform(c, bytes.Clone(in))
		if err != nil || string(out) != "aabbcc" {
			t.Fatalf("run %d: %q, %v", i, out, err)
		}
		e, seen := m.m[m.key(c, in)]
		if !seen || (e != nil) != (i >= 2) {
			t.Fatalf("after run %d: seen %v, entry %v", i, seen, e)
		}
		if want := min(i, 2); calls != want {
			t.Fatalf("after run %d: %d transforms, want %d", i, calls, want)
		}
	}
	calls = 0
	bare := countingCodec(&calls)
	for i := 0; i < 3; i++ {
		if out, _ := bare.memo.transform(bare, in); string(out) != "aabbcc" {
			t.Fatalf("bare codec: %q", out)
		}
	}
	if calls != 3 {
		t.Fatalf("bare codec computed %d of 3 runs", calls)
	}
}

// A stored result is returned only for the input it was computed from: an
// entry planted under another input's key — what a hash collision looks
// like — misses, recomputes, and is left alone.
func TestCodecMemoVerifiesInput(t *testing.T) {
	var calls int
	m := NewCodecMemo()
	c := m.Bind(countingCodec(&calls))
	planted := &memoEntry{key: []byte("abc"), v: []byte("aabbcc")}
	m.m[m.key(c, []byte("xyz"))] = planted
	for i := 1; i <= 3; i++ {
		out, err := m.transform(c, []byte("xyz"))
		if err != nil || string(out) != "xxyyzz" {
			t.Fatalf("run %d under a colliding key: %q, %v", i, out, err)
		}
		if calls != i {
			t.Fatalf("run %d: %d transforms", i, calls)
		}
	}
	if m.m[m.key(c, []byte("xyz"))] != planted {
		t.Fatal("a colliding input replaced the entry it collided with")
	}
	// The same content under another program's name is another key.
	other := c
	other.ProgName = "other"
	if _, seen := m.m[m.key(other, []byte("xyz"))]; seen {
		t.Fatal("keys ignore the program name")
	}
}

// Only successes are stored.
func TestCodecMemoSkipsFailures(t *testing.T) {
	calls, boom := 0, errors.New("boom")
	m := NewCodecMemo()
	c := m.Bind(Codec{ProgName: "bad", Transform: func([]byte) ([]byte, error) { calls++; return nil, boom }})
	for i := 1; i <= 3; i++ {
		if _, err := m.transform(c, []byte("abc")); err != boom || calls != i {
			t.Fatalf("run %d: err %v after %d transforms", i, err, calls)
		}
	}
	if len(m.m) != 0 || m.size != 0 {
		t.Fatalf("a failure left %d keys, %d bytes", len(m.m), m.size)
	}
}

// retained recounts what m holds, to check the booked size against.
func (m *CodecMemo) retained() (keys, bytes int) {
	for _, e := range m.m {
		if e != nil {
			bytes += cap(e.key) + cap(e.v.([]byte))
		}
	}
	return len(m.m), bytes
}

func TestCodecMemoBound(t *testing.T) {
	identity := Codec{ProgName: "id", Transform: func(data []byte) ([]byte, error) { return data, nil }}

	// A corpus transformed once per system (batch_apps: 174 books, four
	// codecs, two platforms) leaves keys and nothing else.
	m := NewCodecMemo()
	c := m.Bind(identity)
	for i := 0; i < 1392; i++ {
		if _, err := m.transform(c, binary.BigEndian.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if keys, held := m.retained(); keys != 1392 || held != 0 || m.size != 1392*memoKeyCost {
		t.Fatalf("1392 inputs seen once: %d keys, %d bytes retained, %d booked", keys, held, m.size)
	}

	// Distinct content past the budget, every input seen twice so that it
	// is admitted: the footprint never passes the constant, and the memo
	// was emptied on the way rather than growing.
	const each = 4 << 20
	m = NewCodecMemo()
	c = m.Bind(identity)
	for i := 0; i < 3*memoBudget/(2*each); i++ {
		for sight := 0; sight < 2; sight++ {
			data := make([]byte, each)
			binary.BigEndian.PutUint32(data, uint32(i))
			if _, err := m.transform(c, data); err != nil {
				t.Fatal(err)
			}
			keys, held := m.retained()
			if booked := held + keys*memoKeyCost; booked != m.size || m.size > memoBudget {
				t.Fatalf("input %d: %d keys + %d bytes retained, %d booked, budget %d", i, keys, held, m.size, memoBudget)
			}
		}
	}
	if keys, _ := m.retained(); keys >= memoBudget/(2*each) {
		t.Fatalf("%d keys left: the memo was never emptied", keys)
	}

	// Content that cannot fit is computed and not kept.
	m = NewCodecMemo()
	c = m.Bind(Codec{ProgName: "big", Transform: func(data []byte) ([]byte, error) { return make([]byte, 0, memoBudget), nil }})
	for i := 0; i < 3; i++ {
		if _, err := m.transform(c, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if keys, held := m.retained(); keys != 1 || held != 0 {
		t.Fatalf("oversize content: %d keys, %d bytes retained", keys, held)
	}
}

// A codec's scratch list keeps its values through collections, which empty
// a sync.Pool, and hands each value to one holder at a time.
func TestSparesSurviveCollection(t *testing.T) {
	built := 0
	s := Spares[[64]byte]{New: func() *[64]byte { built++; return new([64]byte) }}
	v := s.Get()
	s.Put(v)
	runtime.GC()
	runtime.GC()
	if got := s.Get(); got != v || built != 1 {
		t.Fatalf("after two collections Get built %d values, want the one put back", built)
	}
	s.Put(v)

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				v := s.Get()
				v[0] = byte(g)
				runtime.Gosched()
				if v[0] != byte(g) {
					t.Error("two holders share a value")
					return
				}
				s.Put(v)
			}
		}()
	}
	wg.Wait()
}
