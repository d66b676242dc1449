package workload

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb"
)

// RemoteRunConfig parameterizes one wire-path measurement window: the
// same workload as Run, but driven through clients dialed (DialRemote)
// to a served loopback endpoint instead of in-process client handles.
// With Wire false the identical synchronous-invoke loop drives
// in-process clients, giving the apples-to-apples baseline for the HTTP
// overhead.
type RemoteRunConfig struct {
	Contract     Contract
	Flow         bcrdb.Flow
	BlockSize    int
	BlockTimeout time.Duration

	// Workers is the closed-loop concurrency: each worker issues
	// synchronous Invokes back to back. Default 16.
	Workers int

	// Wire selects the path under test: true dials clients over
	// loopback HTTP, false uses in-process clients in the same loop.
	Wire bool

	Warmup   time.Duration // excluded from measurement (default 20% of Duration)
	Duration time.Duration // measurement window (default 2s)
}

func (c RemoteRunConfig) withDefaults() RemoteRunConfig {
	if c.BlockSize == 0 {
		c.BlockSize = 50
	}
	if c.BlockTimeout == 0 {
		c.BlockTimeout = 100 * time.Millisecond
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 5
	}
	return c
}

// RunRemote measures a closed-loop window of synchronous invokes through
// the selected path and reports it as a workload Result (micro metrics
// stay zero: the wire path measures the boundary, not the block
// pipeline). The run fails if nothing commits inside the window.
func RunRemote(cfg RemoteRunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	const secret = "bench-remote-secret"

	var orgs []bcrdb.Org
	var users []string
	userOrg := make(map[string]string)
	for i := 0; i < 3; i++ {
		org := bcrdb.Org{Name: fmt.Sprintf("org%d", i+1)}
		for u := 0; u < (cfg.Workers+2)/3; u++ {
			name := fmt.Sprintf("user%d_%d", i+1, u)
			org.Users = append(org.Users, name)
			users = append(users, name)
			userOrg[name] = org.Name
		}
		orgs = append(orgs, org)
	}

	nw, err := bcrdb.NewNetwork(bcrdb.Options{
		Orgs:           orgs,
		Flow:           cfg.Flow,
		BlockSize:      cfg.BlockSize,
		BlockTimeout:   cfg.BlockTimeout,
		IdentitySecret: secret,
		Retry:          bcrdb.RetryPolicy{Attempts: 3, Timeout: 10 * time.Second, Backoff: 100 * time.Millisecond},
		Genesis:        Genesis(cfg.Contract),
	})
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	invokers := make([]*bcrdb.Client, cfg.Workers)
	if cfg.Wire {
		srv, err := nw.Serve(0, "127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		defer srv.Close()
		for w := range invokers {
			// Org must be explicit: DialRemote defaults to the served
			// node's org, and a cross-org user signing under the wrong
			// org derives the wrong key.
			rc, err := bcrdb.DialRemote(bcrdb.RemoteConfig{
				URL:            srv.URL(),
				Username:       users[w%len(users)],
				Org:            userOrg[users[w%len(users)]],
				IdentitySecret: secret,
				Retry:          bcrdb.RetryPolicy{Attempts: 3, Timeout: 10 * time.Second, Backoff: 100 * time.Millisecond},
			})
			if err != nil {
				return Result{}, fmt.Errorf("dial worker %d: %w", w, err)
			}
			defer rc.Close()
			invokers[w] = rc
		}
	} else {
		for w := range invokers {
			invokers[w] = nw.Client(users[w%len(users)])
		}
	}

	var (
		measuring atomic.Bool
		stop      atomic.Bool
		committed atomic.Int64
		aborted   atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		seq       atomic.Int64
		wg        sync.WaitGroup
	)
	for w := range invokers {
		wg.Add(1)
		go func(inv *bcrdb.Client) {
			defer wg.Done()
			for !stop.Load() {
				name, args := Invocation(cfg.Contract, seq.Add(1))
				start := time.Now()
				res, err := inv.Invoke(name, args...)
				if err != nil {
					continue // teardown or unresolved retry; not a sample
				}
				if !measuring.Load() {
					continue
				}
				if res.Committed {
					committed.Add(1)
					mu.Lock()
					latencies = append(latencies, time.Since(start))
					mu.Unlock()
				} else {
					aborted.Add(1)
				}
			}
		}(invokers[w])
	}

	time.Sleep(cfg.Warmup)
	measuring.Store(true)
	winStart := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	window := time.Since(winStart)
	stop.Store(true)
	wg.Wait()

	res := Result{
		Throughput: float64(committed.Load()) / window.Seconds(),
		Committed:  committed.Load(),
		Aborted:    aborted.Load(),
		Submitted:  committed.Load() + aborted.Load(),
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.AvgLatencyMs = float64(sum.Milliseconds()) / float64(len(latencies))
		res.P95LatencyMs = float64(latencies[len(latencies)*95/100].Microseconds()) / 1e3
	}
	if res.Committed == 0 {
		path := "in-process"
		if cfg.Wire {
			path = "wire"
		}
		return res, fmt.Errorf("remote bench: %s window committed nothing", path)
	}
	return res, nil
}
