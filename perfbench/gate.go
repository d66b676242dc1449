package main

import "fmt"

// gateResult is the replicated outcome of every attempted transaction.
type gateResult struct {
	height                 int64
	attempted              int // fixed-rate and saturation phases
	committed, aborted     int
	submitErrs, unresolved int
	notifyDrops            int
	committedAll           int // including the setup transaction
}

// gate drains the replicas to a common sealed height and checks the
// run's outputs. Any error means the run must not be reported:
//   - every transaction has the same terminal sys_ledger row (or none)
//     on every node, and sys_ledger holds no transaction we did not send;
//   - a notified outcome matches the replicated row;
//   - Network.VerifyConsistency passes;
//   - simple: COUNT(*) FROM kv is the preload plus the committed count;
//     transfer: the total balance is conserved on every node;
//   - every read returned the expected answer.
func (r *runner) gate() (gateResult, error) {
	var g gateResult
	if err := r.nw.WaitHeight(r.nw.Height(), r.cfg.drain); err != nil {
		return g, fmt.Errorf("gate: %w", err)
	}
	g.height = r.nw.Node(0).SealedHeight()
	for _, n := range r.nw.Nodes() {
		if h := n.SealedHeight(); h < g.height {
			g.height = h
		}
	}
	if len(r.readWrong) > 0 {
		return g, fmt.Errorf("gate: wrong read result: %s", r.readWrong[0])
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.nw.Nodes() {
		res, err := n.QueryAt(g.height, `SELECT txid, status FROM sys_ledger`)
		if err != nil {
			return g, fmt.Errorf("gate: sys_ledger on %s: %w", n.Name(), err)
		}
		seen := make(map[string]bool, len(res.Rows))
		for _, row := range res.Rows {
			id, status := row[0].Str(), row[1].Str()
			rec := r.txs[id]
			if rec == nil {
				return g, fmt.Errorf("gate: %s's sys_ledger holds transaction %s that was never submitted", n.Name(), id)
			}
			if seen[id] {
				return g, fmt.Errorf("gate: %s's sys_ledger holds transaction %s twice", n.Name(), id)
			}
			seen[id] = true
			if status != "committed" && status != "aborted" {
				return g, fmt.Errorf("gate: transaction %s has non-terminal status %q on %s", id, status, n.Name())
			}
			if i == 0 {
				rec.status = status
			} else if rec.status != status {
				return g, fmt.Errorf("gate: transaction %s is %q on %s but %q on %s",
					id, status, n.Name(), rec.status, r.nw.Node(0).Name())
			}
		}
		if i > 0 {
			for _, rec := range r.recs {
				if rec.status != "" && !seen[rec.id] {
					return g, fmt.Errorf("gate: transaction %s is %q on %s but missing on %s",
						rec.id, rec.status, r.nw.Node(0).Name(), n.Name())
				}
			}
		}
	}
	for _, rec := range r.recs {
		if rec.notified && rec.committed != (rec.status == "committed") {
			return g, fmt.Errorf("gate: transaction %s notified committed=%v but sys_ledger says %q",
				rec.id, rec.committed, rec.status)
		}
		if !rec.notified && rec.status != "" {
			g.notifyDrops++
		}
		if rec.status == "committed" {
			g.committedAll++
		}
		if rec.phase == phaseSetup {
			continue
		}
		g.attempted++
		switch {
		case rec.status == "committed":
			g.committed++
		case rec.status == "aborted":
			g.aborted++
		case rec.submitErr:
			g.submitErrs++
		default:
			g.unresolved++
		}
	}

	if err := r.nw.VerifyConsistency(); err != nil {
		return g, fmt.Errorf("gate: %w", err)
	}
	if r.spec.Contract == "transfer" {
		res, err := r.nw.Client(r.users[0].name).QueryAll(`SELECT SUM(balance) FROM accounts`)
		if err != nil {
			return g, fmt.Errorf("gate: %w", err)
		}
		if len(res.Rows) != 1 || int64(numeric(res.Rows[0][0])) != r.spec.totalBalance() {
			return g, fmt.Errorf("gate: total balance %v, want %d", res.Rows, r.spec.totalBalance())
		}
		return g, nil
	}
	want := r.spec.PreloadRows + g.committedAll
	for _, n := range r.nw.Nodes() {
		res, err := n.QueryAt(g.height, `SELECT COUNT(*) FROM kv`)
		if err != nil {
			return g, fmt.Errorf("gate: kv count on %s: %w", n.Name(), err)
		}
		if got := int(numeric(res.Rows[0][0])); got != want {
			return g, fmt.Errorf("gate: %s holds %d kv rows, want %d preloaded + committed", n.Name(), got, want)
		}
	}
	return g, nil
}

// failRatio is (aborts + submit errors + unresolved) / attempted over
// both phases, from the replicated sys_ledger.
func (g gateResult) failRatio() float64 {
	return ratio(float64(g.aborted+g.submitErrs+g.unresolved), float64(g.attempted))
}
