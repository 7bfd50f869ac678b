package sim

// RefQueue is a plain binary min-heap of (when, seq) keys: the reference
// the timer wheel is checked and timed against. The wheel's oracle
// tests replay the same schedule into both and demand identical pops,
// and the kernel benchmark times the wheel against it. The engine never
// uses it; it is exported only so the benchmark can drive it.
type RefQueue struct {
	h []refKey
}

type refKey struct {
	when Time
	seq  uint64
}

func (q *RefQueue) less(i, j int) bool {
	if q.h[i].when != q.h[j].when {
		return q.h[i].when < q.h[j].when
	}
	return q.h[i].seq < q.h[j].seq
}

// Len reports the number of queued keys.
func (q *RefQueue) Len() int { return len(q.h) }

// Push queues the key (when, seq).
func (q *RefQueue) Push(when Time, seq uint64) {
	q.h = append(q.h, refKey{when, seq})
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// Pop removes and returns the least key in (when, seq) order. The queue
// must not be empty.
func (q *RefQueue) Pop() (Time, uint64) {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && q.less(r, least) {
			least = r
		}
		if !q.less(least, i) {
			break
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
	return top.when, top.seq
}
