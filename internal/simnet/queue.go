package simnet

import "sync"

// Queue is a bounded FIFO whose memory follows its occupancy. It stands
// in for a buffered channel of the same capacity: Put blocks while the
// queue is full and Get while it is empty, each until its done channel
// closes. Unlike a channel it allocates no slot up front: the backing
// ring grows with the items actually queued, never past the bound, and
// is released once the queue drains. The bound limits how far a
// consumer may fall behind; it is not an allocation.
//
// Any number of goroutines may Put and Get concurrently.
type Queue[T any] struct {
	mu    sync.Mutex
	ring  []T // len(ring) is the current allocation
	head  int // index of the oldest item
	n     int // items queued
	limit int

	// One-token wake-ups. A Put onto an empty queue signals nonEmpty and
	// a Get from a full one signals nonFull; a waiter that was woken and
	// leaves its condition still true passes the token on, so every
	// blocked Put (or Get) makes progress without a broadcast.
	nonEmpty chan struct{}
	nonFull  chan struct{}
}

// queueMinRing is the smallest ring a non-empty queue allocates, and the
// largest one a drained queue keeps.
const queueMinRing = 16

// NewQueue returns an empty queue holding at most limit items.
func NewQueue[T any](limit int) *Queue[T] {
	return &Queue[T]{
		limit:    limit,
		nonEmpty: make(chan struct{}, 1),
		nonFull:  make(chan struct{}, 1),
	}
}

// Put appends v, blocking while the queue is full. It returns ErrClosed,
// without queueing v, if done closes first; a nil done never closes.
func (q *Queue[T]) Put(v T, done <-chan struct{}) error {
	woken := false
	for {
		q.mu.Lock()
		if q.n < q.limit {
			wasEmpty, room := q.pushLocked(v)
			q.mu.Unlock()
			if wasEmpty {
				signal(q.nonEmpty)
			}
			if woken && room {
				signal(q.nonFull)
			}
			return nil
		}
		q.mu.Unlock()
		select {
		case <-q.nonFull:
			woken = true
		case <-done:
			return ErrClosed
		}
	}
}

// TryPut appends v unless the queue is full, and reports whether it did.
func (q *Queue[T]) TryPut(v T) bool {
	q.mu.Lock()
	if q.n == q.limit {
		q.mu.Unlock()
		return false
	}
	wasEmpty, _ := q.pushLocked(v)
	q.mu.Unlock()
	if wasEmpty {
		signal(q.nonEmpty)
	}
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. Once done is closed it returns ErrClosed, even if items remain.
func (q *Queue[T]) Get(done <-chan struct{}) (T, error) {
	var zero T
	woken := false
	for {
		select {
		case <-done:
			return zero, ErrClosed
		default:
		}
		q.mu.Lock()
		if q.n > 0 {
			v := q.ring[q.head]
			q.ring[q.head] = zero // drop the reference for the GC
			q.head = (q.head + 1) % len(q.ring)
			wasFull := q.n == q.limit
			q.n--
			more := q.n > 0
			if !more && len(q.ring) > queueMinRing {
				q.ring, q.head = nil, 0
			}
			q.mu.Unlock()
			if wasFull {
				signal(q.nonFull)
			}
			if woken && more {
				signal(q.nonEmpty)
			}
			return v, nil
		}
		q.mu.Unlock()
		select {
		case <-q.nonEmpty:
			woken = true
		case <-done:
			return zero, ErrClosed
		}
	}
}

// pushLocked appends v, growing the ring by doubling up to the limit. It
// reports whether the queue was empty before and has room after.
func (q *Queue[T]) pushLocked(v T) (wasEmpty, room bool) {
	if q.n == len(q.ring) {
		grown := make([]T, min(max(2*len(q.ring), queueMinRing), q.limit))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
	return q.n == 1, q.n < q.limit
}

// signal leaves a wake-up token unless one is already pending.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
