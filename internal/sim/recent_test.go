package sim

import "testing"

// fifoFilter is the duplicate filter Recent replaced at its five call
// sites, kept as the reference model: a map of the remembered keys plus
// a FIFO slice of their insertion order, dropping the oldest key once
// limit are held.
type fifoFilter struct {
	limit int
	m     map[uint8]int
	q     []uint8
}

func (f *fifoFilter) put(k uint8, v int) {
	if len(f.q) >= f.limit {
		old := f.q[0]
		f.q = f.q[1:]
		delete(f.m, old)
	}
	f.m[k] = v
	f.q = append(f.q, k)
}

// runRecentModel drives a Recent of the given capacity and the
// reference model with the same operation stream. Each byte names a key
// (low 6 bits) and an operation (high 2 bits): a lookup; a lookup that
// updates a hit in place and inserts a miss (the MAC's sequence table);
// an insert of a missing key (the routers' filters); or, on key 0, a
// reset. After every operation both must hold the same keys and values,
// and storage must stay within the capacity.
func runRecentModel(t *testing.T, capacity int, ops []byte) {
	r := NewRecent[uint8, int](capacity)
	f := &fifoFilter{limit: capacity, m: make(map[uint8]int)}
	for i, b := range ops {
		k, op := b&0x3f, b>>6
		v, ok := r.Get(k)
		switch {
		case op == 1 && ok:
			*v = i
			f.m[k] = i
		case (op == 1 || op == 2) && !ok:
			*r.Put(k) = i
			f.put(k, i)
		case op == 3 && k == 0:
			r.Reset()
			f = &fifoFilter{limit: capacity, m: make(map[uint8]int)}
		}
		if len(r.keys) != len(f.q) || len(r.vals) != len(f.q) {
			t.Fatalf("op %d: table holds %d keys and %d values, model %d", i, len(r.keys), len(r.vals), len(f.q))
		}
		if cap(r.keys) > capacity || cap(r.vals) > capacity {
			t.Fatalf("op %d: storage %d keys, %d values exceeds capacity %d", i, cap(r.keys), cap(r.vals), capacity)
		}
		for key := uint8(0); key < 64; key++ {
			v, ok := r.Get(key)
			want, wantOK := f.m[key]
			if ok != wantOK || (ok && *v != want) {
				t.Fatalf("op %d: key %d: table (%v, %v), model (%d, %v)", i, key, deref(v), ok, want, wantOK)
			}
		}
	}
}

func deref(v *int) int {
	if v == nil {
		return 0
	}
	return *v
}

// FuzzRecent checks Recent against the map + FIFO filter it replaced.
// The seeds run under plain `go test`.
func FuzzRecent(f *testing.F) {
	for _, c := range []uint8{1, 5, 32, 63} {
		ops := make([]byte, 600)
		x := uint32(c) + 1
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		f.Add(c, ops)
	}
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		runRecentModel(t, int(c%64)+1, ops)
	})
}
