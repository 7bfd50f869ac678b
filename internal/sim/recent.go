package sim

// Recent is a bounded table of the most recently inserted keys, each
// with a value: the duplicate filter a node keeps in a fixed number of
// rows, the way a mote would. Once the table holds capacity entries, a
// new key overwrites the oldest-inserted one. Lookup is a linear scan of
// the keys alone. Storage grows with use up to the bound, so a node
// that hears few sources carries few rows.
type Recent[K comparable, V any] struct {
	keys  []K
	vals  []V
	limit int
	// oldest is the row the next Put overwrites once the table is full.
	oldest int
}

// NewRecent returns an empty table that holds at most capacity
// entries. Capacity must be positive.
func NewRecent[K comparable, V any](capacity int) Recent[K, V] {
	return Recent[K, V]{limit: capacity}
}

// Get returns a pointer to the value stored under k. The pointer is
// valid until the next Put or Reset.
func (r *Recent[K, V]) Get(k K) (*V, bool) {
	for i, x := range r.keys {
		if x == k {
			return &r.vals[i], true
		}
	}
	return nil, false
}

// Put inserts k, which must be absent, with the zero value and returns
// a pointer to that value, valid until the next Put or Reset. A full
// table overwrites its oldest-inserted entry.
func (r *Recent[K, V]) Put(k K) *V {
	var zero V
	n := len(r.keys)
	if n < r.limit {
		if n == cap(r.keys) {
			c := min(max(2*n, 4), r.limit)
			r.keys = append(make([]K, 0, c), r.keys...)
			r.vals = append(make([]V, 0, c), r.vals...)
		}
		r.keys = append(r.keys, k)
		r.vals = append(r.vals, zero)
		return &r.vals[n]
	}
	i := r.oldest
	r.keys[i], r.vals[i] = k, zero
	r.oldest = (i + 1) % r.limit
	return &r.vals[i]
}

// Reset empties the table. It keeps the rows' storage but drops what
// the values referenced.
func (r *Recent[K, V]) Reset() {
	clear(r.vals)
	r.keys, r.vals, r.oldest = r.keys[:0], r.vals[:0], 0
}
