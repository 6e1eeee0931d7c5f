package prism

// ring is a FIFO over a circular buffer that starts empty and doubles on
// demand, so push, pop and indexing from the head are O(1) at any depth
// and an idle ring holds no memory. The admission queues and the
// delivery layer's send windows are both rings.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // elements held
}

// at returns the i-th element from the head, 0 <= i < n.
func (r *ring[T]) at(i int) *T {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// push appends v, doubling a full buffer. limit > 0 clamps the buffer
// to limit elements; the caller then keeps n below limit.
func (r *ring[T]) push(v T, limit int) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size == 0 {
			size = 16
		}
		if limit > 0 && size > limit {
			size = limit
		}
		buf := make([]T, size)
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.n++
	*r.at(r.n - 1) = v
}

// pop removes and returns the oldest element (n > 0), zeroing its slot
// so the buffer retains nothing the element referenced.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}
