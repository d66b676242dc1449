package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](8) // small bound: the producer blocks and wraps the ring
	const n = 10000
	go func() {
		for i := 0; i < n; i++ {
			if err := q.Put(i, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		v, err := q.Get(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("item %d = %d: order broken", i, v)
		}
	}
}

func TestQueuePutBlocksAtCapacity(t *testing.T) {
	q := NewQueue[int](2)
	for i := 0; i < 2; i++ {
		if !q.TryPut(i) {
			t.Fatalf("TryPut %d failed below capacity", i)
		}
	}
	put := make(chan error, 1)
	go func() { put <- q.Put(2, nil) }()
	select {
	case err := <-put:
		t.Fatalf("Put on a full queue returned %v without blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	if v, _ := q.Get(nil); v != 0 {
		t.Fatalf("Get = %d, want 0", v)
	}
	select {
	case err := <-put:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Put still blocked after Get freed a slot")
	}
	for want := 1; want <= 2; want++ {
		if v, _ := q.Get(nil); v != want {
			t.Fatalf("Get = %d, want %d", v, want)
		}
	}
}

// Several producers blocked on one full queue all get through as the
// consumer frees slots: one wake-up token is passed along, not lost.
func TestQueueWakesEveryBlockedPut(t *testing.T) {
	const limit, producers = 4, 8
	q := NewQueue[int](limit)
	for i := 0; i < limit; i++ {
		q.TryPut(-1 - i)
	}
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = q.Put(i, nil)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let every producer block
	timeout := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(timeout) })
	defer timer.Stop()
	for got := 0; got < limit+producers; got++ {
		if _, err := q.Get(timeout); err != nil {
			t.Fatalf("only %d of %d items arrived: a blocked Put was never woken", got, limit+producers)
		}
	}
	wg.Wait()
}

func TestQueueDoneUnblocks(t *testing.T) {
	q := NewQueue[int](1)
	done := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := q.Get(done)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(done)
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on close = %v, want ErrClosed", err)
	}

	q.TryPut(1)
	done2 := make(chan struct{})
	go func() { got <- q.Put(2, done2) }()
	time.Sleep(10 * time.Millisecond)
	close(done2)
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on close = %v, want ErrClosed", err)
	}
	// A closed done wins over queued items, like a link that shut down.
	if _, err := q.Get(done2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get with done closed = %v, want ErrClosed", err)
	}
	if v, err := q.Get(nil); err != nil || v != 1 {
		t.Fatalf("Get = %d, %v: the refused Put must not have queued", v, err)
	}
}

func TestQueueTryPutDropsWhenFull(t *testing.T) {
	q := NewQueue[int](3)
	for i := 0; i < 3; i++ {
		if !q.TryPut(i) {
			t.Fatalf("TryPut %d failed below capacity", i)
		}
	}
	if q.TryPut(3) {
		t.Fatal("TryPut on a full queue succeeded")
	}
	q.Get(nil)
	if !q.TryPut(3) {
		t.Fatal("TryPut failed after Get freed a slot")
	}
}

// The ring follows occupancy: it grows only as far as the items queued
// (never to the bound) and is released once the queue drains.
func TestQueueMemoryFollowsOccupancy(t *testing.T) {
	q := NewQueue[Message](65536)
	if q.ring != nil {
		t.Fatal("an empty queue allocated a ring")
	}
	const n = 10000
	for i := 0; i < n; i++ {
		q.TryPut(Message{Kind: "k"})
	}
	if got := len(q.ring); got < n || got > 2*n {
		t.Fatalf("ring holds %d slots for %d items", got, n)
	}
	for i := 0; i < n; i++ {
		if _, err := q.Get(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(q.ring); got > queueMinRing {
		t.Fatalf("drained ring still holds %d slots, want at most %d", got, queueMinRing)
	}
	// A trickle stays within the minimum ring.
	for i := 0; i < n; i++ {
		q.TryPut(Message{})
		q.Get(nil)
	}
	if got := len(q.ring); got > queueMinRing {
		t.Fatalf("ring grew to %d slots at occupancy 1", got)
	}
}
