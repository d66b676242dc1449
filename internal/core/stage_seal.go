// Stage 3 — Seal: per-block bookkeeping that nothing on the commit
// critical path reads — sys_ledger rows (§3.3.2 step 1 / §3.3.3), the
// write-set digest and checkpointing (§3.3.4), the block-outcome WAL
// frame and the storage durability point, and client notifications
// (§2(7)). With the pipeline enabled this runs on the sealer goroutine
// and overlaps the next block's execution; replay and
// Config.SynchronousSeal run it inline. See pipeline.go for the stage
// overview and docs/adr/0002-block-pipeline.md for the recovery
// implications.

package core

import (
	"crypto/sha256"
	"fmt"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// sealStage performs the seal for one committed block. Within the seal,
// ordering is chosen for crash consistency on the disk backend:
//
//  1. sys_ledger rows (storage commit frames, not yet synced);
//  2. write-set digest from the commit-time captures (no store reads);
//  3. block-outcome WAL frame, fsynced on the disk backend; if either
//     fails the node halts here (failStop), so the block is never
//     marked durable, sealed or announced;
//  4. MarkDurable — the storage height frame + fsync. Everything before
//     it (state commits from stage 2, ledger rows, the outcome frame) is
//     durable once it returns, so a restart that restores height N also
//     restores block N's complete seal;
//  5. checkpoint broadcast and client notifications, which must only
//     ever announce durable outcomes.
//
// A crash anywhere before step 4 leaves the block beyond the storage
// recovery horizon: recovery re-executes it from the block store and
// re-derives the seal (§3.6 case b).
func (n *Node) sealStage(task *sealTask) {
	if n.halted.Load() {
		return // a block before this one was never made durable
	}
	t0 := time.Now()
	b := task.block

	n.appendLedgerRows(b, task.execs, task.outcomes)

	writeHash := writeSetHash(task.committedTxs, task.committedRecs)
	n.cpMu.Lock()
	n.ownHashes[b.Number] = writeHash
	n.lastSealedHash = writeHash
	n.lastSealedOutcomes = task.outcomes
	n.cpMu.Unlock()
	n.evaluateCheckpoint(b.Number)
	n.pruneCheckpoints()

	if n.log != nil && !task.replay {
		err := n.log.Append(&wal.BlockRecord{Block: b.Number, Outcomes: task.outcomes, WriteHash: writeHash})
		if err == nil && n.diskBacked {
			// Make the outcome frame durable before the storage horizon
			// advances past this block: a restored block then always has
			// its WAL frame for the checkpoint bookkeeping and the replay
			// cross-check.
			err = n.log.Sync()
		}
		if err != nil {
			n.failStop(fmt.Errorf("block %d outcome WAL: %w", b.Number, err))
			return
		}
	}
	n.store.MarkDurable(int64(b.Number))

	if !task.replay && b.Number%n.cfg.CheckpointEvery == 0 {
		cp := &ledger.Checkpoint{Peer: n.cfg.Name, Block: b.Number, WriteHash: writeHash}
		cp.Signature = n.signer.Sign(cp.SignBytes())
		payload := ledger.MarshalCheckpoint(cp)
		for _, o := range n.cfg.Orderers {
			_ = n.ep.Send(o, ordering.KindCheckpoint, payload)
		}
	}
	for _, r := range task.results {
		n.notify(r, task.replay)
	}

	n.sealedHeight.Store(int64(b.Number))
	n.metrics.BlocksSealed.Add(1)
	n.metrics.BlockSealNanos.Add(int64(time.Since(t0)))

	// The seal was the last reader of the block's execution records (the
	// write-set digest above consumed their captures); recycle them.
	n.releaseBlockRecords(task.execs)
}

// failStop halts the node after a durability failure. Like
// DiskStore.MarkDurable on a storage WAL failure, the node must never
// acknowledge a block it could not make durable: the failed block and
// every later one stay unsealed, unannounced and below the durable
// height, and processBlock drops further blocks. Instead of panicking
// the node stays up, so Alerts reports the failure; a restart recovers
// from the durable prefix (§3.6 case b).
func (n *Node) failStop(err error) {
	if n.halted.Swap(true) {
		return
	}
	n.cpMu.Lock()
	n.alerts = append(n.alerts, "halted: "+err.Error())
	n.cpMu.Unlock()
}

// releaseBlockRecords returns a sealed block's transaction records to
// the storage arena (storage/arena.go). Skipped entirely while history
// retention is on — the audit trail aliases the records' read sets — and
// deduplicated by execution, since a malicious block repeating a
// transaction id yields several entries sharing one record.
func (n *Node) releaseBlockRecords(execs []*execution) {
	n.histMu.Lock()
	retain := n.retainHist
	n.histMu.Unlock()
	if retain {
		return
	}
	for _, e := range execs {
		// Duplicate block entries share one execution object, so nil-ing
		// e.rec on first release also deduplicates.
		if rec := e.rec; rec != nil {
			e.rec = nil
			storage.ReleaseTxRecord(rec)
		}
	}
}

// appendLedgerRows records all block transactions and their statuses in
// sys_ledger atomically (the paper's pgLedger, §4.2). The sealer is the
// only sys_ledger writer and seals in block order, so these rows are
// deterministic across replicas except for the node-local xid column
// (which is why sys_ledger is hash-exempt).
func (n *Node) appendLedgerRows(b *ledger.Block, execs []*execution, outcomes []wal.TxOutcome) {
	rec := storage.AcquireTxRecord(n.store.BeginTx(), int64(b.Number)-1)
	defer storage.ReleaseTxRecord(rec) // CommitTx below is its last reader
	ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: int64(b.Number) - 1, Rec: rec}
	for i, e := range execs {
		status := "aborted"
		if outcomes[i].Committed {
			status = "committed"
		}
		var xid int64
		if e.rec != nil {
			xid = int64(e.rec.ID)
		}
		sub := *ctx
		sub.Params = []types.Value{
			types.NewString(e.tx.ID),
			types.NewInt(int64(b.Number)),
			types.NewInt(int64(i)),
			types.NewString(e.tx.Username),
			types.NewString(e.tx.Contract),
			types.NewString(argsString(e.tx.Args)),
			types.NewString(status),
			types.NewInt(b.Timestamp),
			types.NewInt(xid),
		}
		if _, err := n.eng.ExecSQL(&sub, `INSERT INTO sys_ledger
			(txid, block, seq, username, contract, args, status, commit_time, local_xid)
			VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9)`); err != nil {
			// A duplicate id in a malicious block: record only the first.
			continue
		}
	}
	n.store.CommitTx(rec, int64(b.Number))
}

// writeSetHash digests the union of all changes a block committed
// (§3.3.4): per committed transaction in block order, every inserted row
// and every superseded row's primary key. It works entirely from the
// commit-time write captures, so the seal never re-reads the store — the
// encoding (and therefore the hash) is identical to the pre-pipeline
// digest that re-issued a store.Get per row.
func writeSetHash(txs []*ledger.Transaction, recs []*storage.TxRecord) ledger.Hash {
	h := sha256.New()
	for i, rec := range recs {
		e := codec.NewBuf(256)
		e.String(txs[i].ID)
		if wc := rec.Capture; wc != nil {
			for _, cr := range wc.Inserted {
				e.String(cr.Table)
				e.Row(cr.Row)
			}
			for _, cr := range wc.Deleted {
				e.String("-" + cr.Table)
				e.Row(cr.Row)
			}
		}
		h.Write(e.Bytes())
	}
	var out ledger.Hash
	copy(out[:], h.Sum(nil))
	return out
}
