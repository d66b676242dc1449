// Stage 2 — Commit: SSI analysis and commit-turn validation strictly in
// block order (§3.3.3 / §3.4.1, Table 2), ending at bumpHeight. This is
// the serialization point of the pipeline: once the height is bumped,
// the next block's executions proceed while this block's seal runs in
// the background. See pipeline.go for the stage overview.

package core

import (
	"sync"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ssi"
	"bcrdb/internal/storage"
	"bcrdb/internal/wal"
)

// commitStage validates and commits the executed transactions in block
// order and advances the committed height. It returns the seal task
// carrying everything stage 3 needs, so the bookkeeping can leave the
// critical path.
func (n *Node) commitStage(b *ledger.Block, execs []*execution, replay bool, t0 time.Time) *sealTask {
	bet := time.Since(t0)
	tCommit := time.Now()
	infos := make([]*ssi.TxInfo, len(execs))
	for i, e := range execs {
		infos[i] = n.txInfo(i, e)
	}
	mode := ssi.OrderThenExecute
	if n.cfg.Flow == ExecuteOrder {
		mode = ssi.ExecuteOrderParallel
	}
	analysis := ssi.NewAnalysis(mode, infos)

	// Duplicate-id detection (§3.4.3, the unique-identifier rule) is the
	// one commit-turn check whose state is global — any two block
	// positions can carry the same id regardless of table footprint — so
	// it is decided in a serial pre-pass in block order. The id is
	// consumed whether the transaction commits or aborts; sys_ledger
	// records both.
	dup := make([]bool, len(execs))
	for i, e := range execs {
		dup[i] = n.consumeID(e.tx.ID)
	}

	// Every remaining commit-turn interaction is table-local (see
	// commit_groups.go), so transactions partition into groups with
	// disjoint table footprints that validate and commit concurrently,
	// serial in block order within each group. CommitWorkers=1 (the
	// -serial-commit baseline) degenerates to the plain serial loop.
	outcomes := make([]wal.TxOutcome, len(execs))
	results := make([]TxResult, len(execs))
	groups := commitGroups(execs)
	n.metrics.CommitGroups.Add(int64(len(groups)))
	runGroup := func(idxs []int) {
		for _, i := range idxs {
			n.commitOne(b, i, execs[i], dup[i], analysis, outcomes, results)
		}
	}
	if workers := minInt(n.cfg.CommitWorkers, len(groups)); workers > 1 {
		gch := make(chan []int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range gch {
					runGroup(g)
				}
			}()
		}
		for _, g := range groups {
			gch <- g
		}
		close(gch)
		wg.Wait()
	} else {
		for _, g := range groups {
			runGroup(g)
		}
	}

	// Serial post-pass in block order: the seal stage's digest and the
	// audit history depend on committed-transaction order.
	var committedRecs []*storage.TxRecord
	var committedTxs []*ledger.Transaction
	for i, e := range execs {
		if outcomes[i].Committed {
			committedRecs = append(committedRecs, e.rec)
			committedTxs = append(committedTxs, e.tx)
			n.recordHistory(b, i, e, infos[i])
		}
	}

	// Release execution slots.
	n.execMu.Lock()
	for _, e := range execs {
		if cur, ok := n.executing[e.tx.ID]; ok && cur == e {
			delete(n.executing, e.tx.ID)
		}
	}
	n.execMu.Unlock()

	// The block is now fully committed: block N+1 may execute.
	n.bumpHeight(int64(b.Number))
	bpt := time.Since(t0)
	n.metrics.BlocksProcessed.Add(1)
	n.metrics.BlockProcessNanos.Add(int64(bpt))
	n.metrics.BlockExecNanos.Add(int64(bet))
	n.metrics.BlockCommitNanos.Add(int64(time.Since(tCommit)))

	return &sealTask{
		block:         b,
		execs:         execs,
		outcomes:      outcomes,
		results:       results,
		committedTxs:  committedTxs,
		committedRecs: committedRecs,
		replay:        replay,
	}
}

// commitOne validates and commits (or aborts) the block's i-th
// transaction. Safe to run concurrently for transactions in different
// commit groups: every store and analysis access is confined to the
// transaction's own table footprint, and the metrics/cert-epoch updates
// are atomic.
func (n *Node) commitOne(b *ledger.Block, i int, e *execution, dup bool,
	analysis *ssi.Analysis, outcomes []wal.TxOutcome, results []TxResult) {
	reason := ""
	switch {
	case e.err != nil:
		reason = "execution: " + e.err.Error()
	case dup:
		reason = "duplicate transaction id"
	default:
		if r := analysis.ShouldAbort(i); r != ssi.ReasonNone {
			reason = string(r)
		} else if err := n.store.Validate(e.rec, int64(b.Number)); err != nil {
			reason = err.Error()
		}
	}
	if reason == "" {
		n.store.CommitTx(e.rec, int64(b.Number))
		n.noteCertWrites(e.rec)
		analysis.MarkCommitted(i)
		n.metrics.TxCommitted.Add(1)
	} else {
		if e.rec != nil {
			// A malicious block can carry the same transaction twice;
			// both entries then share one execution record, and the
			// second must not roll back versions the first committed.
			// (Shared-record entries are always in the same group, so
			// this check runs after the first entry's commit turn.)
			if ok, _ := n.store.IsCommitted(e.rec.ID); !ok {
				n.store.AbortTx(e.rec)
			}
		}
		analysis.MarkAborted(i)
		n.metrics.TxAborted.Add(1)
	}
	outcomes[i] = wal.TxOutcome{ID: e.tx.ID, Committed: reason == "", Reason: reason}
	results[i] = TxResult{ID: e.tx.ID, Block: b.Number, Committed: reason == "", Reason: reason}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// noteCertWrites bumps the cert-cache epoch when a committed
// transaction touched sys_certs, invalidating every cached key.
func (n *Node) noteCertWrites(rec *storage.TxRecord) {
	for _, ir := range rec.Inserted {
		if ir.Table == "sys_certs" {
			n.certsEpoch.Add(1)
			return
		}
	}
	for _, ir := range rec.DeletedOld {
		if ir.Table == "sys_certs" {
			n.certsEpoch.Add(1)
			return
		}
	}
}

// recordHistory appends a committed transaction to the serializability
// audit trail, when enabled.
func (n *Node) recordHistory(b *ledger.Block, seq int, e *execution, info *ssi.TxInfo) {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	if !n.retainHist || e.rec == nil {
		return
	}
	ct := &ssi.CommittedTx{
		Name:           e.tx.ID,
		Block:          int64(b.Number),
		Seq:            seq,
		SnapshotHeight: e.rec.SnapshotHeight,
		ReadRows:       e.rec.ReadRows,
		ReadRanges:     e.rec.ReadRanges,
		WrittenOld:     info.WrittenOld,
		InsertedRefs:   append([]storage.ItemRef(nil), e.rec.Inserted...),
		InsertedKeys:   info.InsertedKeys,
	}
	n.history = append(n.history, ct)
}

// txInfo converts an execution into the SSI analysis input.
func (n *Node) txInfo(seq int, e *execution) *ssi.TxInfo {
	info := &ssi.TxInfo{
		Seq:        seq,
		ReadRows:   map[storage.ItemRef]struct{}{},
		WrittenOld: map[storage.ItemRef]struct{}{},
	}
	if e.rec == nil || e.err != nil {
		return info
	}
	info.SnapshotHeight = e.rec.SnapshotHeight
	info.ReadRows = e.rec.ReadRows
	info.ReadRanges = e.rec.ReadRanges
	for _, ir := range e.rec.DeletedOld {
		info.WrittenOld[ir] = struct{}{}
	}
	for _, ir := range e.rec.Inserted {
		for ixName, key := range n.store.IndexKeys(ir.Table, ir.Ref) {
			info.InsertedKeys = append(info.InsertedKeys, ssi.KeyAt{
				Table: ir.Table, Index: ixName, Key: key,
			})
		}
	}
	return info
}

// --- recorded-id set (§3.4.3 unique-identifier rule) ---------------------------

// seenBefore reports whether a transaction id was already recorded in
// the ledger. The check used to be a per-transaction `SELECT txid FROM
// sys_ledger WHERE txid = $1`; the in-memory set gives the same answer
// without a SQL round trip on the commit critical path, and — unlike the
// query, which only saw rows sealed at or below the previous height —
// stays exact while the previous block's sys_ledger rows are still being
// sealed in the background.
func (n *Node) seenBefore(txID string) bool {
	n.seenMu.Lock()
	_, ok := n.seenTx[txID]
	n.seenMu.Unlock()
	return ok
}

// consumeID records a transaction id as consumed and reports whether it
// had already been consumed — by an earlier block, or by an earlier
// position of the current block.
func (n *Node) consumeID(txID string) bool {
	n.seenMu.Lock()
	_, ok := n.seenTx[txID]
	if !ok {
		n.seenTx[txID] = struct{}{}
	}
	n.seenMu.Unlock()
	return ok
}

// rebuildSeen reloads the recorded-id set from sys_ledger. Recovery
// calls it after a disk-backed restart, where the restored prefix was
// never re-executed: the ids of those blocks' transactions exist only in
// the restored table. Re-executed blocks repopulate the set through
// commitStage on their own.
func (n *Node) rebuildSeen() {
	res, err := n.Query(`SELECT txid FROM sys_ledger`)
	if err != nil {
		return
	}
	n.seenMu.Lock()
	for _, row := range res.Rows {
		n.seenTx[row[0].Str()] = struct{}{}
	}
	n.seenMu.Unlock()
}
