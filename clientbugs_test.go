package bcrdb

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// clientTransport is one way a Client reaches its home node. The client
// regression tests run once per transport: the client code is the same,
// only the transport under it differs.
type clientTransport struct {
	name string
	// client returns alice's client and the call that closes it: the
	// network's Close for an in-process client; for a dialed one, the
	// client's own Close (then the network's, so no test leaks it).
	client func(t *testing.T, nw *Network) (*Client, func())
}

var clientTransports = []clientTransport{
	{"Direct", func(t *testing.T, nw *Network) (*Client, func()) {
		return nw.Client("alice"), nw.Close
	}},
	{"HTTP", func(t *testing.T, nw *Network) (*Client, func()) {
		t.Helper()
		srv, err := nw.Serve(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := DialRemote(RemoteConfig{URL: srv.URL(), Username: "alice",
			IdentitySecret: nw.opts.IdentitySecret, Retry: nw.opts.Retry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, func() { c.Close(); nw.Close() }
	}},
}

// clientTestNetwork builds the demo network with the given retry policy
// and the shared identity secret a dialed client needs.
func clientTestNetwork(t *testing.T, flow Flow, retry RetryPolicy) *Network {
	t.Helper()
	opts := demoOptions(flow)
	opts.IdentitySecret = "client-test-secret"
	opts.Retry = retry
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

// stalledNetwork builds a network whose transactions can never resolve
// (every orderer is stopped), forcing Invoke into its retry loop.
func stalledNetwork(t *testing.T, retry RetryPolicy) *Network {
	t.Helper()
	nw := clientTestNetwork(t, ExecuteOrder, retry)
	for i := range nw.Orderers() {
		nw.StopOrderer(i)
	}
	return nw
}

// TestInvokeBackoffWakesOnClose is the regression test for the
// uncancelable retry sleep: Invoke used time.Sleep between attempts, so
// closing the network left the goroutine sleeping out its full backoff
// before firing another attempt into a stopped fabric. The wait must
// end the moment the client closes, with the typed ErrClosed.
func TestInvokeBackoffWakesOnClose(t *testing.T) {
	for _, tt := range clientTransports {
		t.Run(tt.name, func(t *testing.T) {
			nw := stalledNetwork(t, RetryPolicy{
				Attempts: 10,
				Timeout:  50 * time.Millisecond,
				Backoff:  10 * time.Second, // pre-fix: Close would strand Invoke for seconds
			})
			alice, closeClient := tt.client(t, nw)
			done := make(chan error, 1)
			go func() {
				_, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
				done <- err
			}()

			// Let the first attempt time out and the retry enter its backoff.
			time.Sleep(300 * time.Millisecond)
			start := time.Now()
			closeClient()

			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Invoke after close returned %v, want ErrClosed", err)
				}
				var ue *UnresolvedError
				if !errors.As(err, &ue) {
					t.Fatalf("want *UnresolvedError, got %T", err)
				}
				if woke := time.Since(start); woke > 2*time.Second {
					t.Fatalf("Invoke took %v to observe close (backoff not interrupted)", woke)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Invoke still blocked 5s after Close — backoff sleep is uncancelable")
			}
		})
	}
}

// TestCloseFencesConcurrentUse is the regression test for the unfenced
// Network.Close: submissions racing or following Close must fail fast
// with ErrClosed instead of hanging on a dead fabric.
func TestCloseFencesConcurrentUse(t *testing.T) {
	for _, tt := range clientTransports {
		t.Run(tt.name, func(t *testing.T) {
			testCloseFencesConcurrentUse(t, tt)
		})
	}
}

func testCloseFencesConcurrentUse(t *testing.T, tt clientTransport) {
	nw := clientTestNetwork(t, ExecuteOrder, RetryPolicy{Attempts: 3, Timeout: 10 * time.Second, Backoff: 50 * time.Millisecond})
	alice, closeClient := tt.client(t, nw)

	// Concurrent invokes racing Close: none may hang or panic.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = alice.Invoke("transfer", Int(1), Int(2), Float(1))
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	closeClient()
	closeClient() // idempotent

	raced := make(chan struct{})
	go func() { wg.Wait(); close(raced) }()
	select {
	case <-raced:
	case <-time.After(10 * time.Second):
		t.Fatal("invokes racing Close did not finish")
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			// A racing invoke may legitimately have committed before
			// Close, or timed out mid-teardown; what it must never do
			// is return an unrelated failure mode like a panic value.
			var ue *UnresolvedError
			if !errors.As(err, &ue) {
				t.Fatalf("invoke %d: unexpected error %v", i, err)
			}
		}
	}

	// Use strictly after Close: typed error, immediately.
	start := time.Now()
	_, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after Close returned %v, want ErrClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Invoke after Close took %v, want immediate failure", d)
	}
	if _, err := nw.SubmitRaw("alice", "transfer", []Value{Int(1), Int(2), Float(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitRaw after Close returned %v, want ErrClosed", err)
	}
	if !nw.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

// TestRetryJitterDeterministic is the regression test for jitter drawn
// from the process-global math/rand source: with RetryPolicy.Seed set,
// two networks must produce identical backoff schedules for the same
// client, whatever else the process has done with math/rand.
func TestRetryJitterDeterministic(t *testing.T) {
	for _, tt := range clientTransports {
		t.Run(tt.name, func(t *testing.T) {
			schedule := func() []time.Duration {
				nw := stalledNetwork(t, RetryPolicy{
					Attempts: 4,
					Timeout:  20 * time.Millisecond,
					Backoff:  80 * time.Millisecond,
					Seed:     7,
				})
				alice, closeClient := tt.client(t, nw)
				defer closeClient()
				var waits []time.Duration
				alice.backoffHook = func(d time.Duration) { waits = append(waits, d) }
				_, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
				var ue *UnresolvedError
				if !errors.As(err, &ue) {
					t.Fatalf("stalled invoke returned %v, want UnresolvedError", err)
				}
				return waits
			}

			a := schedule()
			b := schedule()
			if len(a) != 3 || len(b) != 3 {
				t.Fatalf("want 3 recorded backoffs per run, got %d and %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same-seed backoff schedules diverge at attempt %d: %v vs %v\nfull: %v vs %v",
						i+1, a[i], b[i], a, b)
				}
			}
		})
	}
}

// TestInvokeFailsOver: when an attempt's target is down, Invoke's retry
// takes the next route and the transaction commits on a later attempt.
// Execute-order loses the home node's endpoint, so the retry goes to
// the next node; order-then-execute loses one orderer, so a transaction
// whose id routes there retries on the next orderer.
func TestInvokeFailsOver(t *testing.T) {
	retry := RetryPolicy{Attempts: 6, Timeout: 2 * time.Second, Backoff: 50 * time.Millisecond}
	for _, tt := range clientTransports {
		t.Run(tt.name+"/ExecuteOrder", func(t *testing.T) {
			nw := clientTestNetwork(t, ExecuteOrder, retry)
			alice, _ := tt.client(t, nw)
			home := nw.Node(0)
			h0 := nw.Node(1).Height()
			nw.Net().StopEndpoint(home.Name())

			type outcome struct {
				res TxResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := alice.Invoke("transfer", Int(1), Int(2), Float(1))
				done <- outcome{res, err}
			}()
			// The retry lands on the next node, which gets the
			// transaction ordered without the home node; bring the home
			// node back so it catches up and reports the commit.
			waitFor(t, "commit without the home node", func() bool { return nw.Node(1).Height() > h0 })
			nw.Net().RestartEndpoint(home.Name())
			select {
			case o := <-done:
				if o.err != nil || !o.res.Committed {
					t.Fatalf("Invoke = %+v, %v; want a commit", o.res, o.err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Invoke did not return after the home node came back")
			}
			if alice.retries.Load() == 0 {
				t.Fatal("committed without a retry: the failover path was not taken")
			}
		})
		t.Run(tt.name+"/OrderThenExecute", func(t *testing.T) {
			nw := clientTestNetwork(t, OrderThenExecute, retry)
			alice, _ := tt.client(t, nw)
			// Orderer 1 delivers to node 1 only, so alice's home node
			// keeps its deliveries; a third of the ids route to it.
			nw.StopOrderer(1)
			for i := 0; alice.retries.Load() == 0; i++ {
				if i == 40 {
					t.Fatal("40 invokes and none routed to the stopped orderer")
				}
				res, err := alice.Invoke("open_account", Int(int64(5000+i)), Text("x"), Float(1))
				if err != nil || !res.Committed {
					t.Fatalf("invoke %d = %+v, %v; want a commit", i, res, err)
				}
			}
		})
	}
}
