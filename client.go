package bcrdb

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/transport"
)

// RetryPolicy configures client-side resubmission (Options.Retry).
// Resubmitting the same signed transaction is idempotent end to end: the
// ordering service deduplicates by transaction id and every node records
// each id at most once (§3.4.3), so a retry can never double-apply.
// Between attempts the client consults the replicated ledger table, which
// catches the committed-but-notification-lost case.
type RetryPolicy struct {
	// Attempts is the total number of submission attempts per Invoke.
	// Default 1 — no retry, the pre-existing behavior.
	Attempts int
	// Timeout bounds each attempt's wait for a result. Default 30s.
	Timeout time.Duration
	// Backoff is the base delay before the second attempt; it doubles
	// each further attempt (with jitter) up to MaxBackoff. Defaults
	// 100ms / 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed seeds the jitter generator. 0 (the default) draws a random
	// seed per client; a non-zero seed makes every client's backoff
	// schedule a pure function of (Seed, username), so chaos runs with
	// the same seed retry at the same simulated moments.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// RemoteConfig configures a client that reaches a bcrdb-server over the
// wire instead of living inside the fabric process.
type RemoteConfig struct {
	// URL is the base URL of a bcrdb-server ("http://host:port").
	URL string
	// Username must be declared in the server network's Options.Orgs
	// (or be an "admin@<org>" administrator).
	Username string
	// Org is the user's organization. Empty defaults to the org of the
	// node behind URL.
	Org string
	// IdentitySecret must equal the server network's IdentitySecret —
	// the client derives its signing key from it, and the server-side
	// nodes verify signatures against the genesis certificates.
	IdentitySecret string
	// Retry follows the same semantics as Options.Retry.
	Retry RetryPolicy
}

// errInProcessOnly is returned by the calls that need the in-process
// network rather than one node's transport.
var errInProcessOnly = errors.New("bcrdb: QueryAll and ExecPrivate need an in-process client (Network.Client)")

// Client submits signed transactions on behalf of one user and learns
// their outcomes from its home node's commit stream (§2(7): transactions
// are asynchronous). It reaches the node through a transport.Transport:
// Network.Client holds a transport.Direct on the user's org node,
// DialRemote the HTTP transport to a bcrdb-server. Everything else —
// transaction building, retry with failover, the sys_ledger fallback —
// is the same code for both.
//
// In the execute-order-in-parallel flow a client submits to its home
// database node, tagging the transaction with the node's current block
// height as the snapshot; in order-then-execute it submits directly to an
// ordering node.
type Client struct {
	tr     transport.Transport
	signer *identity.Signer
	flow   Flow
	retry  RetryPolicy

	// nw and home are set for in-process clients only: QueryAll reads
	// every node and ExecPrivate writes the home node's private schema.
	nw   *Network
	home *core.Node

	// ctx is cancelled by Close; it wakes every blocked wait (retry
	// backoff, Await, the stream follower).
	ctx    context.Context
	cancel context.CancelFunc

	// rng drives retry jitter. Per-client and explicitly seeded so two
	// networks built with the same RetryPolicy.Seed produce identical
	// backoff schedules.
	rngMu sync.Mutex
	rng   *mrand.Rand

	// backoffHook observes each computed retry wait (tests only).
	backoffHook func(time.Duration)
	retries     atomic.Int64 // resubmissions (Network.ClientRetries sums them)

	// followMu guards starting the commit-stream follower, which runs
	// from the first submission that waits for a result until Close.
	followMu  sync.Mutex
	following bool
	wg        sync.WaitGroup

	mu      sync.Mutex
	waiters map[string][]chan TxResult
}

func newClient(tr transport.Transport, signer *identity.Signer, flow Flow, retry RetryPolicy) *Client {
	seed := retry.Seed
	if seed == 0 {
		seed = mrand.Int63()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Client{
		tr:      tr,
		signer:  signer,
		flow:    flow,
		retry:   retry,
		ctx:     ctx,
		cancel:  cancel,
		rng:     mrand.New(mrand.NewSource(seed ^ int64(transport.Hash(signer.Name)))),
		waiters: make(map[string][]chan TxResult),
	}
}

// Client returns (creating on first use) the client handle for a user
// registered in Options.Orgs. Its home node is its org's node.
func (nw *Network) Client(username string) *Client {
	nw.clientMu.Lock()
	defer nw.clientMu.Unlock()
	if c, ok := nw.clients[username]; ok {
		return c
	}
	signer := nw.signers[username]
	if signer == nil {
		panic(fmt.Sprintf("bcrdb: unknown user %q (declare it in Options.Orgs)", username))
	}
	home := nw.nodes[0]
	for _, n := range nw.nodes {
		if n.Org() == signer.Org {
			home = n
			break
		}
	}
	// The transport's fabric endpoint is named after the user, so link
	// faults can target a client; on a name collision it falls back to
	// a suffixed name.
	d, err := transport.NewDirect(nw.net, username, home, nw.opts.Flow, nw.orderers)
	if err != nil {
		d, err = transport.NewDirect(nw.net, username+".client", home, nw.opts.Flow, nw.orderers)
	}
	var tr transport.Transport = d
	if err != nil {
		// The fabric is closed (or both names are taken): the client
		// starts closed.
		tr = closedTransport{}
	}
	c := newClient(tr, signer, nw.opts.Flow, nw.opts.Retry)
	c.nw, c.home = nw, home
	if err != nil {
		c.cancel()
	}
	nw.clients[username] = c
	return c
}

// DialRemote connects to a bcrdb-server and derives the user's identity
// from the shared secret. The returned client is the same Client an
// in-process network hands out, over the HTTP transport; the caller
// closes it.
func DialRemote(cfg RemoteConfig) (*Client, error) {
	if cfg.URL == "" || cfg.Username == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs URL and Username")
	}
	if cfg.IdentitySecret == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs the cluster's IdentitySecret")
	}
	tr := transport.Dial(cfg.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	info, err := tr.Info(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("bcrdb: dial %s: %w", cfg.URL, err)
	}
	org := cfg.Org
	if org == "" {
		org = info.Org
	}
	role := identity.RoleClient
	if strings.HasPrefix(cfg.Username, "admin@") {
		role = identity.RoleAdmin
	}
	signer, err := identity.Deterministic(cfg.Username, org, role, cfg.IdentitySecret)
	if err != nil {
		return nil, err
	}
	flow := ExecuteOrder
	if info.Flow == "order-execute" {
		flow = OrderThenExecute
	}
	return newClient(tr, signer, flow, cfg.Retry), nil
}

// Close stops the client: blocked Invokes and Awaits return ErrClosed,
// the commit-stream follower exits and the transport is released.
// Network.Close closes the in-process clients; the caller of DialRemote
// closes a dialed one. Safe to call more than once.
func (c *Client) Close() error {
	c.cancel()
	c.followMu.Lock()
	c.following = true // no follower may start after this point
	c.followMu.Unlock()
	c.wg.Wait()
	return c.tr.Close()
}

func (c *Client) closed() bool { return c.ctx.Err() != nil }

// Username returns the client's user name.
func (c *Client) Username() string { return c.signer.Name }

// Info reports the home node's identity and heights.
func (c *Client) Info() (transport.Info, error) { return c.tr.Info(c.ctx) }

// follow starts the commit-stream follower unless it runs already. The
// first stream is opened before returning, so a submission made after
// follow cannot commit unseen.
func (c *Client) follow() error {
	c.followMu.Lock()
	defer c.followMu.Unlock()
	if c.closed() {
		return ErrClosed
	}
	if c.following {
		return nil
	}
	ch, stop, err := c.tr.CommitStream(c.ctx)
	if err != nil {
		return err
	}
	c.following = true
	c.wg.Add(1)
	go c.followCommits(ch, stop)
	return nil
}

// followCommits hands each streamed result to its waiters and redials,
// with backoff, whenever the stream drops. Results committed while no
// stream was connected are recovered by Invoke's sys_ledger lookup.
func (c *Client) followCommits(ch <-chan TxResult, stop func()) {
	defer c.wg.Done()
	for {
		for r := range ch {
			c.dispatch(r)
		}
		stop()
		for redial := 50 * time.Millisecond; ; redial = min(2*redial, 2*time.Second) {
			if !c.sleep(redial) {
				return
			}
			var err error
			if ch, stop, err = c.tr.CommitStream(c.ctx); err == nil {
				break
			}
		}
	}
}

func (c *Client) dispatch(r TxResult) {
	c.mu.Lock()
	chans := c.waiters[r.ID]
	delete(c.waiters, r.ID)
	c.mu.Unlock()
	for _, ch := range chans {
		select {
		case ch <- r:
		default:
		}
	}
}

// addWaiter registers a result waiter for a tx id.
func (c *Client) addWaiter(id string) <-chan TxResult {
	ch := make(chan TxResult, 1)
	c.mu.Lock()
	c.waiters[id] = append(c.waiters[id], ch)
	c.mu.Unlock()
	return ch
}

// removeWaiter drops a waiter that gave up, so an abandoned Await does
// not leave its channel registered forever.
func (c *Client) removeWaiter(id string, ch <-chan TxResult) {
	c.mu.Lock()
	ws := c.waiters[id]
	for i, w := range ws {
		if (<-chan TxResult)(w) == ch {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(c.waiters, id)
	} else {
		c.waiters[id] = ws
	}
	c.mu.Unlock()
}

// buildTx signs a transaction. For ExecuteOrder the snapshot is the home
// node's current height (the paper: "the client can obtain this from the
// peer it is connected with") and the id is the §3.4.3 deterministic hash
// — identical (user, contract, args, snapshot) share an id by design. In
// OrderThenExecute the id is client-chosen and unique (§3.3), so retries
// of failed invocations work naturally.
func (c *Client) buildTx(contract string, args []Value) (*ledger.Transaction, error) {
	if c.closed() {
		return nil, ErrClosed
	}
	tx := &ledger.Transaction{
		Username: c.signer.Name,
		Contract: contract,
		Args:     args,
	}
	if c.flow == ExecuteOrder {
		info, err := c.tr.Info(c.ctx)
		if err != nil {
			return nil, fmt.Errorf("bcrdb: fetch snapshot height: %w", err)
		}
		tx.Snapshot = info.Height
		tx.ID = ledger.ComputeID(c.signer.Name, contract, args, tx.Snapshot)
	} else {
		var nonce [16]byte
		if _, err := rand.Read(nonce[:]); err != nil {
			panic(err) // crypto/rand failure is unrecoverable
		}
		tx.ID = hex.EncodeToString(nonce[:])
	}
	tx.Signature = c.signer.Sign(tx.SignBytes())
	return tx, nil
}

// submit signs and sends without waiting; returns the transaction id.
func (c *Client) submit(contract string, args []Value) (string, error) {
	tx, err := c.buildTx(contract, args)
	if err != nil {
		return "", err
	}
	return tx.ID, c.tr.SubmitAttempt(c.ctx, ledger.MarshalTransaction(tx), 0)
}

// PendingTx is an in-flight transaction.
type PendingTx struct {
	ID string
	c  *Client
	ch <-chan TxResult
}

// Submit signs and submits a transaction asynchronously. Await the
// result on the returned PendingTx. Two submissions with identical
// (user, contract, args, snapshot) share an id (§3.4.3) — include a
// nonce argument in the contract when replays must be distinct.
func (c *Client) Submit(contract string, args ...Value) (*PendingTx, error) {
	tx, err := c.buildTx(contract, args)
	if err != nil {
		return nil, err
	}
	return c.send(tx.ID, ledger.MarshalTransaction(tx), 0)
}

// send registers a result waiter and ships the payload on the attempt's
// route, deregistering on send failure.
func (c *Client) send(id string, payload []byte, attempt int) (*PendingTx, error) {
	if err := c.follow(); err != nil {
		return nil, err
	}
	ch := c.addWaiter(id)
	if err := c.tr.SubmitAttempt(c.ctx, payload, attempt); err != nil {
		c.removeWaiter(id, ch)
		return nil, err
	}
	return &PendingTx{ID: id, c: c, ch: ch}, nil
}

// Await blocks for the transaction result. Whatever the outcome, the
// waiter is released on return: a timed-out Await does not leak its
// entry.
func (p *PendingTx) Await(timeout time.Duration) (TxResult, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	defer p.c.removeWaiter(p.ID, p.ch)
	select {
	case r := <-p.ch:
		return r, nil
	case <-p.c.ctx.Done():
		return TxResult{}, ErrClosed
	case <-timer.C:
		return TxResult{}, fmt.Errorf("bcrdb: timeout waiting for tx %s", p.ID)
	}
}

// UnresolvedError is returned by Invoke when every attempt timed out
// and the replicated ledger has no terminal state for the transaction
// yet. It carries the transaction id so callers can reconcile later —
// the transaction may still commit after the client gave up (e.g. the
// home node is catching up after a partition).
type UnresolvedError struct {
	ID       string
	Attempts int
	Last     error
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("bcrdb: tx %s unresolved after %d attempt(s): %v", e.ID, e.Attempts, e.Last)
}

func (e *UnresolvedError) Unwrap() error { return e.Last }

// lookupLedger consults the replicated ledger table for a transaction's
// terminal state — authoritative when a result notification was lost.
func (c *Client) lookupLedger(id string) (TxResult, bool) {
	res, err := c.tr.Query(c.ctx, -1, `SELECT block, status FROM sys_ledger WHERE txid = $1`, []Value{Text(id)})
	if err != nil || len(res.Rows) == 0 {
		return TxResult{}, false
	}
	r := TxResult{
		ID:        id,
		Block:     uint64(res.Rows[0][0].Int()),
		Committed: res.Rows[0][1].Str() == "committed",
	}
	if !r.Committed {
		r.Reason = "recorded aborted in sys_ledger"
	}
	return r, true
}

// Invoke submits a transaction and waits for its result, retrying per
// the client's RetryPolicy (default: one attempt, 30s). Retries resubmit
// the SAME signed transaction — the ordering service and nodes
// deduplicate by id, so resubmission is idempotent — and fail over to a
// different target each attempt (the transport's route). Before each
// retry (and before giving up) the replicated ledger is consulted, which
// resolves transactions that committed while their notification was
// lost.
func (c *Client) Invoke(contract string, args ...Value) (TxResult, error) {
	pol := c.retry.withDefaults()
	tx, err := c.buildTx(contract, args)
	if err != nil {
		return TxResult{}, err
	}
	payload := ledger.MarshalTransaction(tx)
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			wait := backoff/2 + time.Duration(c.jitter(int64(backoff/2)+1))
			if c.backoffHook != nil {
				c.backoffHook(wait)
			}
			// Wait close-aware: Close wakes every sleeping retry
			// immediately instead of letting it fire attempts into a
			// stopped fabric seconds later.
			if !c.sleep(wait) {
				return TxResult{}, &UnresolvedError{ID: tx.ID, Attempts: attempt, Last: ErrClosed}
			}
			backoff = min(2*backoff, pol.MaxBackoff)
			c.retries.Add(1)
			if r, ok := c.lookupLedger(tx.ID); ok {
				return r, nil
			}
		}
		p, err := c.send(tx.ID, payload, attempt)
		if errors.Is(err, ErrClosed) {
			return TxResult{}, &UnresolvedError{ID: tx.ID, Attempts: attempt, Last: ErrClosed}
		}
		if err != nil {
			lastErr = err
			continue
		}
		r, err := p.Await(pol.Timeout)
		if err == nil {
			return r, nil
		}
		lastErr = err
	}
	if r, ok := c.lookupLedger(tx.ID); ok {
		return r, nil
	}
	return TxResult{}, &UnresolvedError{ID: tx.ID, Attempts: pol.Attempts, Last: lastErr}
}

// jitter draws from the client's seeded rng (n must be > 0).
func (c *Client) jitter(n int64) int64 {
	c.rngMu.Lock()
	v := c.rng.Int63n(n)
	c.rngMu.Unlock()
	return v
}

// sleep waits for d, returning false if the client closed first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// Query runs a read-only SQL query against the client's home node at the
// current height. Read-only queries are served by one node and are not
// recorded on the chain (§3.7); clients distrusting their node can issue
// the query against several nodes and compare (§3.5(5)).
func (c *Client) Query(sql string, params ...Value) (*Result, error) {
	return c.tr.Query(c.ctx, -1, sql, params)
}

// QueryAt runs a read-only query at a historic block height.
func (c *Client) QueryAt(height int64, sql string, params ...Value) (*Result, error) {
	return c.tr.Query(c.ctx, height, sql, params)
}

// ExecPrivate runs a statement on the home node's non-blockchain schema
// (§3.7): node-local tables for the client's own organization, joinable
// with blockchain tables in read-only queries but invisible to contracts
// and consensus. In-process clients only.
func (c *Client) ExecPrivate(sql string, params ...Value) (*Result, error) {
	if c.home == nil {
		return nil, errInProcessOnly
	}
	return c.home.ExecPrivate(sql, params...)
}

// QueryAll runs the query on every node and returns an error if any two
// disagree — the cross-checking read of §3.5(5). In-process clients
// only.
func (c *Client) QueryAll(sql string, params ...Value) (*Result, error) {
	if c.nw == nil {
		return nil, errInProcessOnly
	}
	h := c.nw.nodes[0].Height()
	for _, n := range c.nw.nodes[1:] {
		if nh := n.Height(); nh < h {
			h = nh
		}
	}
	var ref *engine.Result
	for i, n := range c.nw.nodes {
		res, err := n.QueryAt(h, sql, params...)
		if err != nil {
			return nil, fmt.Errorf("bcrdb: node %s: %w", n.Name(), err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !sameResult(ref, res) {
			return nil, fmt.Errorf("bcrdb: node %s returned a different result (possible tampering, §3.5(5))", n.Name())
		}
	}
	return ref, nil
}

func sameResult(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j].Kind() != b.Rows[i][j].Kind() {
				return false
			}
			if a.Rows[i][j].String() != b.Rows[i][j].String() {
				return false
			}
		}
	}
	return true
}

// closedTransport stands in for a transport that could not be built
// because the fabric was already closed: every call fails.
type closedTransport struct{}

func (closedTransport) Info(context.Context) (transport.Info, error) {
	return transport.Info{}, ErrClosed
}
func (closedTransport) SubmitAttempt(context.Context, []byte, int) error { return ErrClosed }
func (closedTransport) Query(context.Context, int64, string, []Value) (*Result, error) {
	return nil, ErrClosed
}
func (closedTransport) CommitStream(context.Context) (<-chan TxResult, func(), error) {
	return nil, nil, ErrClosed
}
func (closedTransport) Close() error { return nil }
