package netsim

import "time"

// FIFO queues callbacks that fall due in non-decreasing time order — the
// completions of one serial resource, such as a bot CPU that works through
// its solves first in, first out — and keeps only the queue's head in the
// engine heap. A solving bot can fall seconds behind; with one event per
// queued completion that backlog would sit in the heap and deepen every
// pop, while a FIFO holds it in a ring and arms one event at a time.
//
// Firing order is exactly that of one ScheduleAt per entry: Push takes the
// entry's engine sequence number at the moment ScheduleAt would have
// taken it, and the head is armed under that number when it reaches the
// front. The entries of a FIFO are already in the engine's (time, seq)
// order, so the armed head is the only one of them that could be the
// engine's next event.
type FIFO[T any] struct {
	eng  *Engine
	fire func(T)
	// fireFn is q.pop bound once, so arming allocates no closure.
	fireFn func()
	ring   []fifoEntry[T] // power-of-two ring; ring[head] is armed when n > 0
	head   int
	n      int
}

type fifoEntry[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// NewFIFO returns an empty queue on eng that hands each entry to fire when
// it falls due.
func NewFIFO[T any](eng *Engine, fire func(T)) *FIFO[T] {
	q := &FIFO[T]{eng: eng, fire: fire}
	q.fireFn = q.pop
	return q
}

// Push queues v to fire at at (clamped to now, as ScheduleAt clamps). The
// time must not precede the previous entry's: a FIFO serves one serial
// resource, and an entry that would overtake another is a bug in the
// caller, so Push panics rather than fire it out of order.
func (q *FIFO[T]) Push(at time.Duration, v T) {
	if now := q.eng.now; at < now {
		at = now
	}
	mask := len(q.ring) - 1
	if q.n > 0 && at < q.ring[(q.head+q.n-1)&mask].at {
		panic("netsim: FIFO.Push out of time order")
	}
	if q.n == len(q.ring) {
		q.grow()
		mask = len(q.ring) - 1
	}
	seq := q.eng.reserveSeq()
	q.ring[(q.head+q.n)&mask] = fifoEntry[T]{at: at, seq: seq, v: v}
	q.n++
	if q.n == 1 {
		q.eng.scheduleSeq(at, seq, q.fireFn)
	}
}

// grow doubles the ring, unwrapping it to start at index 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]fifoEntry[T], size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring = ring
	q.head = 0
}

// pop fires the armed head. The next entry is armed before fire runs, so
// a fire that pushes onto an emptied queue arms its own entry and the
// engine never holds two events for one FIFO.
func (q *FIFO[T]) pop() {
	e := &q.ring[q.head]
	v := e.v
	*e = fifoEntry[T]{} // drop what v references once it has fired
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	if q.n > 0 {
		next := &q.ring[q.head]
		q.eng.scheduleSeq(next.at, next.seq, q.fireFn)
	}
	q.fire(v)
}
