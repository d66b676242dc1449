package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb"
	"bcrdb/internal/core"
	"bcrdb/internal/transport"
	"bcrdb/internal/types"
)

type phase uint8

const (
	phaseSetup phase = iota
	phaseFixed
	phaseSat
)

// satPoolTPS sizes the presigned saturation pool: the closed loop can
// commit at up to this rate before the pool runs dry, in which case the
// window ends early at the moment it did.
const satPoolTPS = 10_000

// txRec is everything observed about one transaction. The submitting
// goroutine owns due..submitErr; the notification collectors write
// at..notified under runner.mu.
type txRec struct {
	id        string
	home      int
	phase     phase
	inWindow  bool // fixed phase, due inside the measured window
	due       int64
	sent      int64 // Submit call started (after signing, if signed when due)
	subEnd    int64 // Submit call returned
	signNs    int64
	submitErr bool
	dropped   bool // test hook: recorded as attempted, never submitted

	at        [numOrgs]int64 // notification time per node, 0 = none
	block     uint64
	committed bool
	notified  bool // home node's notification arrived

	status string // replicated sys_ledger status after the drain ("" = absent)
}

type readSample struct {
	scan            bool
	due, start, end int64
}

// runConfig is one pass over a workload.
type runConfig struct {
	spec    Spec
	seed    int64
	seconds float64       // measured seconds: half fixed-rate, half saturation
	warmup  time.Duration // before each phase's window
	setups  int           // set-ups per pass; setup_s is their median
	drain   time.Duration // outcome deadline after each phase
	reads   float64       // reads/s alongside the fixed-rate phase
	traced  bool
	dir     string // writable directory for data dirs
	hooks   hooks
}

// hooks let the gate's self-test break a run on purpose.
type hooks struct {
	dropFixed  int                  // index of a fixed-phase tx never submitted (-1: none)
	beforeGate func(*bcrdb.Network) // runs after the drain, before the gate
}

// passResult is what one pass measured. e2e holds the end-to-end
// metrics; layers (traced passes only) the per-layer ones.
type passResult struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	inputs    map[string]int
	spans     []span
	stealPct  float64 // host CPU time stolen from the VM in the fixed-rate window
}

type runner struct {
	cfg   runConfig
	spec  Spec
	flow  bcrdb.Flow
	orgs  []bcrdb.Org
	users []user
	gen   *txGen

	nw      *bcrdb.Network
	dataDir string
	directs []*transport.Direct
	subs    []<-chan core.TxResult

	sem        chan struct{} // saturation in-flight slots, freed by home outcomes
	stop       chan struct{} // stops the collectors
	wg         sync.WaitGroup
	collecting bool

	mu       sync.Mutex
	txs      map[string]*txRec
	recs     []*txRec
	resolved [3]int // home outcomes per phase
	sent     [3]int // submissions per phase

	reads     []readSample
	readErrs  int
	readWrong []string
}

// runPass runs one workload pass: set-up, fixed-rate phase, saturation
// phase, drain and correctness gate. A non-nil error means the run is
// not measured.
func runPass(cfg runConfig) (*passResult, error) {
	orgs, users, err := orgsAndUsers()
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:   cfg,
		spec:  cfg.spec,
		flow:  cfg.spec.flow(),
		orgs:  orgs,
		users: users,
		gen:   newTxGen(cfg.spec, users, cfg.seed),
		sem:   make(chan struct{}, cfg.spec.InFlight),
		stop:  make(chan struct{}),
		txs:   make(map[string]*txRec),
	}
	res := &passResult{e2e: map[string]float64{}, layers: map[string]float64{}, inputs: map[string]int{}}

	// Inputs, drawn from the seed before anything is timed.
	fixedWarm := cfg.warmup.Seconds()
	fixedMeasure := 0.5 * cfg.seconds
	satMeasure := 0.5 * cfg.seconds
	setupInv := r.gen.next()
	fixedInvs := r.gen.batch(int(cfg.spec.FixedRate * (fixedWarm + fixedMeasure)))
	var presignNs []float64
	if cfg.spec.presigned() {
		r.gen.presign([]*invocation{setupInv}, 1)
		r.gen.presign(fixedInvs, runtime.NumCPU())
		for _, inv := range fixedInvs {
			presignNs = append(presignNs, float64(inv.signNs))
		}
	}
	res.inputs["fixed_txs"] = len(fixedInvs)

	setups, err := r.setUp(setupInv)
	if err != nil {
		return nil, err
	}
	defer r.tearDown()
	res.e2e["setup_s"] = median(setups)

	fx := r.fixedPhase(fixedInvs, fixedWarm, fixedMeasure)
	runtime.GC()
	res.e2e["heap_live_mb"] = float64(heapLiveBytes()) / (1 << 20)

	// The saturation pool continues the same seeded stream; it is drawn
	// only now so the heap probe above does not count it.
	satInvs := r.gen.batch(int(satPoolTPS * (cfg.warmup.Seconds() + satMeasure)))
	res.inputs["sat_pool_txs"] = len(satInvs)
	if cfg.spec.presigned() {
		r.gen.presign(satInvs, runtime.NumCPU())
	}
	sat, err := r.saturation(satInvs)
	if err != nil {
		return nil, err
	}
	r.drain(phaseSat)
	if cfg.hooks.beforeGate != nil {
		cfg.hooks.beforeGate(r.nw)
	}
	gate, err := r.gate()
	if err != nil {
		return nil, err
	}
	res.attempted = gate.attempted + len(r.reads)
	res.failed = gate.submitErrs + gate.unresolved + r.readErrs
	res.inputs["reads"] = len(r.reads)
	res.inputs["attempted_txs"] = gate.attempted
	res.inputs["committed_txs"] = gate.committed
	res.inputs["aborted_txs"] = gate.aborted

	if err := r.endToEnd(res, fx, gate); err != nil {
		return nil, err
	}
	res.stealPct = 100 * ratio(float64(fx.last().steal-fx.first().steal), float64(fx.last().cpuTicks-fx.first().cpuTicks))
	if cfg.traced {
		r.perLayer(res, fx, sat, gate, presignNs)
	}
	r.tearDown()
	if cfg.traced {
		time.Sleep(200 * time.Millisecond) // let stopped components' goroutines exit
		res.layers["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	}
	return res, nil
}

func (r *runner) options(dataDir string) bcrdb.Options {
	return bcrdb.Options{
		Orgs:           r.orgs,
		Flow:           r.flow,
		BlockSize:      r.spec.BlockSize,
		BlockTimeout:   100 * time.Millisecond,
		Profile:        bcrdb.ProfileLAN,
		Backend:        r.spec.Backend,
		DataDir:        dataDir,
		IdentitySecret: identitySecret,
		Genesis:        r.spec.genesis(),
	}
}

// setUp builds cfg.setups networks in turn and keeps the last. Each one
// is timed from the NewNetwork call until the setup transaction has
// committed on every replica; signing it is generator work and excluded.
func (r *runner) setUp(inv *invocation) ([]float64, error) {
	var times []float64
	for k := 0; k < r.cfg.setups; k++ {
		final := k == r.cfg.setups-1
		var dir string
		if r.spec.Backend == "disk" {
			dir = filepath.Join(r.cfg.dir, fmt.Sprintf("net-%d", k))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		opts := r.options(dir)
		t0 := now()
		nw, err := bcrdb.NewNetwork(opts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.nw, r.dataDir = nw, dir
		r.subs, r.directs = nil, nil
		for i, n := range nw.Nodes() {
			r.subs = append(r.subs, n.SubscribeAll())
			d, err := transport.NewDirect(nw.Net(), fmt.Sprintf("perfbench.%d", i), n, r.flow, nw.Orderers())
			if err != nil {
				r.tearDown()
				return nil, fmt.Errorf("setup: %w", err)
			}
			r.directs = append(r.directs, d)
		}
		rec, signNs, err := r.setupTx(inv)
		if err != nil {
			r.tearDown()
			return nil, err
		}
		times = append(times, float64(now()-t0-signNs)/1e9)
		if final {
			r.txs[rec.id] = rec
			r.recs = append(r.recs, rec)
			r.collecting = true
			for i, ch := range r.subs {
				r.wg.Add(1)
				go r.collect(i, ch)
			}
			break
		}
		r.tearDown()
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// setupTx submits the setup transaction and waits for it on every node.
func (r *runner) setupTx(inv *invocation) (*txRec, int64, error) {
	u := r.users[inv.user]
	rec := &txRec{home: u.org, phase: phaseSetup, due: now()}
	payload := inv.payload
	var signNs int64
	if payload == nil {
		rec.id, payload, signNs = r.gen.sign(inv, r.flow, r.nw.Node(u.org).Height())
	} else {
		rec.id = inv.id
	}
	rec.sent = now()
	if err := r.directs[u.org].Submit(context.Background(), payload); err != nil {
		return nil, 0, fmt.Errorf("setup: submit: %w", err)
	}
	rec.subEnd = now()
	timeout := time.After(30 * time.Second)
	for i, ch := range r.subs {
	wait:
		for {
			select {
			case tr := <-ch:
				if tr.ID != rec.id {
					continue
				}
				rec.at[i] = now()
				if i == rec.home {
					rec.block, rec.committed, rec.notified = tr.Block, tr.Committed, true
				}
				break wait
			case <-timeout:
				return nil, 0, fmt.Errorf("setup: transaction %s not committed on node %d within 30s", rec.id, i)
			}
		}
	}
	if !rec.committed {
		return nil, 0, fmt.Errorf("setup: transaction %s aborted", rec.id)
	}
	return rec, signNs, nil
}

func (r *runner) tearDown() {
	if r.nw == nil {
		return
	}
	if r.collecting {
		close(r.stop)
		r.wg.Wait()
		r.collecting = false
	}
	for i, ch := range r.subs {
		r.nw.Node(i).UnsubscribeAll(ch)
	}
	for _, d := range r.directs {
		_ = d.Close() // Direct.Close only unregisters; it cannot fail
	}
	r.nw.Close()
	r.nw = nil
}

// collect records node's notifications. A home-node outcome of a
// saturation transaction frees its in-flight slot.
func (r *runner) collect(node int, ch <-chan core.TxResult) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case tr := <-ch:
			t := now()
			free := false
			r.mu.Lock()
			if rec := r.txs[tr.ID]; rec != nil && rec.at[node] == 0 {
				rec.at[node] = t
				if node == rec.home {
					rec.block, rec.committed, rec.notified = tr.Block, tr.Committed, true
					r.resolved[rec.phase]++
					free = rec.phase == phaseSat
				}
			}
			r.mu.Unlock()
			if free {
				select {
				case <-r.sem:
				default:
				}
			}
		}
	}
}

// submit records and sends one transaction that was due at due.
func (r *runner) submit(inv *invocation, due int64, ph phase, drop bool) *txRec {
	u := r.users[inv.user]
	rec := &txRec{home: u.org, phase: ph, due: due, dropped: drop}
	payload := inv.payload
	if payload == nil {
		rec.id, payload, rec.signNs = r.gen.sign(inv, r.flow, r.nw.Node(u.org).Height())
	} else {
		rec.id = inv.id
	}
	r.mu.Lock()
	r.txs[rec.id] = rec
	r.recs = append(r.recs, rec)
	r.sent[ph]++
	r.mu.Unlock()
	rec.sent = now()
	if drop {
		rec.subEnd = rec.sent
		return rec
	}
	err := r.directs[u.org].Submit(context.Background(), payload)
	rec.subEnd = now()
	rec.submitErr = err != nil
	return rec
}

// window is one phase's measured interval, cut into one-second
// sub-windows with a probe at every boundary. Metrics are taken per
// sub-window and reported as the median over them: on a shared 2-vCPU VM
// the host's speed swings up to 2x from second to second, and a median
// of sub-windows does not move with one slow stretch where a whole-window
// percentile does.
type window struct {
	start, end int64
	probes     []probe
}

func (w window) first() probe { return w.probes[0] }
func (w window) last() probe  { return w.probes[len(w.probes)-1] }
func (w window) subs() int    { return len(w.probes) - 1 }

// sub returns the index of the sub-window holding t, or -1.
func (w window) sub(t int64) int {
	if t < w.start || t >= w.end || w.subs() < 1 {
		return -1
	}
	return int((t - w.start) * int64(w.subs()) / (w.end - w.start))
}

// subWindow is the length of one sub-window: at 500 tx/s a second holds
// 50 samples beyond the p90, and a median over ten of them ignores a
// slow stretch of up to four seconds.
const subWindow = time.Second

// probeWindow takes the boundary probes of w. If stop closes first, the
// window ends there with its completed sub-windows.
func (r *runner) probeWindow(w *window, stop <-chan struct{}) {
	k := max(1, int(math.Round(float64(w.end-w.start)/float64(subWindow))))
	step := (w.end - w.start) / int64(k)
	sleepUntil(w.start)
	w.probes = append(w.probes, takeProbe(r.nw, r.dataDir))
	for i := 1; i <= k; i++ {
		select {
		case <-time.After(time.Duration(w.start + int64(i)*step - now())):
		case <-stop:
			w.end = w.start + int64(i-1)*step
			return
		}
		w.probes = append(w.probes, takeProbe(r.nw, r.dataDir))
	}
	w.end = w.start + int64(k)*step
}

// fixedPhase offers the presigned (or signed-when-due) transactions on
// a fixed schedule, with the read mix alongside, and drains.
func (r *runner) fixedPhase(invs []*invocation, warm, measure float64) window {
	start := now() + int64(20*time.Millisecond)
	w := window{start: start + int64(warm*1e9)}
	w.end = w.start + int64(measure*1e9)
	interval := 1e9 / r.spec.FixedRate
	winStart, winEnd := w.start, w.end // probeWindow rewrites w

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, inv := range invs {
			due := start + int64(float64(i)*interval)
			sleepUntil(due)
			rec := r.submit(inv, due, phaseFixed, i == r.cfg.hooks.dropFixed)
			rec.inWindow = due >= winStart && due < winEnd
			invs[i] = nil // the heap probe after the phase must not count the pool
		}
	}()
	readsEnd := start + int64((warm+measure)*1e9)
	var pointS, scanS []readSample
	var pointErr, scanErr int
	var pointWrong, scanWrong []string
	wg.Add(2)
	go func() {
		defer wg.Done()
		pointS, pointErr, pointWrong = r.reader(false, start, readsEnd, r.cfg.reads*(1-scanShare), r.cfg.seed+1)
	}()
	go func() {
		defer wg.Done()
		scanS, scanErr, scanWrong = r.reader(true, start, readsEnd, r.cfg.reads*scanShare, r.cfg.seed+2)
	}()
	r.probeWindow(&w, nil)
	wg.Wait()
	r.reads = append(pointS, scanS...)
	r.readErrs = pointErr + scanErr
	r.readWrong = append(pointWrong, scanWrong...)
	r.drain(phaseFixed)
	return w
}

// reader issues reads of one kind on a fixed schedule against the home
// node (org1). It returns the samples, the count of reads that returned
// an error and descriptions of wrong answers.
func (r *runner) reader(scan bool, start, end int64, rate float64, seed int64) ([]readSample, int, []string) {
	rng := rand.New(rand.NewSource(seed))
	home := r.nw.Node(0)
	var out []readSample
	var errs int
	var wrong []string
	for i := 0; ; i++ {
		due := start + int64(float64(i)*1e9/rate)
		if due >= end {
			break
		}
		sleepUntil(due)
		began := now()
		key := 1 + rng.Intn(r.spec.PreloadRows)
		var err error
		var bad string
		if scan {
			bad, err = r.scanRead(home)
		} else {
			bad, err = r.pointRead(home, key)
		}
		out = append(out, readSample{scan: scan, due: due, start: began, end: now()})
		if err != nil {
			errs++
		} else if bad != "" && len(wrong) < 10 {
			wrong = append(wrong, bad)
		}
	}
	return out, errs, wrong
}

func (r *runner) pointRead(n *core.Node, key int) (string, error) {
	if r.spec.Contract == "transfer" {
		res, err := n.Query(`SELECT balance FROM accounts WHERE id = $1`, bcrdb.Int(int64(key)))
		if err != nil {
			return "", err
		}
		if len(res.Rows) != 1 || numeric(res.Rows[0][0]) < 0 {
			return fmt.Sprintf("point read of account %d returned %v", key, res.Rows), nil
		}
		return "", nil
	}
	res, err := n.Query(`SELECT v FROM kv WHERE id = $1`, bcrdb.Int(int64(key)))
	if err != nil {
		return "", err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != preloadValue(key) {
		return fmt.Sprintf("point read of kv %d returned %v", key, res.Rows), nil
	}
	return "", nil
}

func (r *runner) scanRead(n *core.Node) (string, error) {
	if r.spec.Contract == "transfer" {
		res, err := n.Query(`SELECT branch, SUM(balance) FROM accounts GROUP BY branch`)
		if err != nil {
			return "", err
		}
		var sum float64
		for _, row := range res.Rows {
			sum += numeric(row[1])
		}
		if len(res.Rows) != r.spec.Branches || int64(sum) != r.spec.totalBalance() {
			return fmt.Sprintf("branch scan returned %d branches summing to %.0f, want %d summing to %d",
				len(res.Rows), sum, r.spec.Branches, r.spec.totalBalance()), nil
		}
		return "", nil
	}
	res, err := n.Query(`SELECT COUNT(*) FROM kv WHERE id <= $1`, bcrdb.Int(int64(r.spec.PreloadRows)))
	if err != nil {
		return "", err
	}
	if len(res.Rows) != 1 || int(numeric(res.Rows[0][0])) != r.spec.PreloadRows {
		return fmt.Sprintf("kv scan returned %v, want %d", res.Rows, r.spec.PreloadRows), nil
	}
	return "", nil
}

func numeric(v types.Value) float64 {
	switch v.Kind() {
	case types.KindInt:
		return float64(v.Int())
	case types.KindFloat:
		return v.Float()
	}
	return math.NaN()
}

// saturation keeps spec.InFlight transactions outstanding from two
// submitting goroutines. The window ends early if the pool runs dry.
func (r *runner) saturation(invs []*invocation) (window, error) {
	start := now()
	w := window{start: start + int64(r.cfg.warmup)}
	w.end = w.start + int64(0.5*r.cfg.seconds*1e9)
	var next atomic.Int64
	dry := make(chan struct{})
	var dryOnce sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case r.sem <- struct{}{}:
				}
				i := next.Add(1) - 1
				if i >= int64(len(invs)) {
					dryOnce.Do(func() { close(dry) })
					return
				}
				r.submit(invs[i], now(), phaseSat, false)
			}
		}()
	}
	r.probeWindow(&w, dry)
	close(stop)
	wg.Wait()
	if w.subs() < 1 {
		return w, fmt.Errorf("saturation pool of %d transactions ran dry within a second of the window", len(invs))
	}
	return w, nil
}

// drain waits until every submitted transaction of the phase has its
// home outcome, or the drain deadline passes. Whatever is still
// unresolved then counts as infinitely late and as failed.
func (r *runner) drain(ph phase) {
	deadline := time.Now().Add(r.cfg.drain)
	r.mu.Lock()
	lost := r.undeliverable(ph)
	r.mu.Unlock()
	for time.Now().Before(deadline) {
		r.mu.Lock()
		done := r.resolved[ph] >= r.sent[ph]-lost
		r.mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// undeliverable counts the phase's transactions that can never resolve
// (submit errors and test-dropped ones); callers hold r.mu.
func (r *runner) undeliverable(ph phase) int {
	n := 0
	for _, rec := range r.recs {
		if rec.phase == ph && (rec.dropped || rec.submitErr) {
			n++
		}
	}
	return n
}
