package transport

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// Hash is the 32-bit FNV-1a hash of s. It is the one hash the client
// side routes by: it picks a transaction's orderer, and it seeds a
// client's retry jitter.
func Hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// route picks the fabric destination of one submission attempt. Direct
// and Server both submit through it, so a transaction retried over
// either transport walks the same targets. Attempt 0 is the normal
// route; each retry fails over to the next target:
//
//   - execute-order: the connected node validates and forwards (§3.2);
//     attempt a goes to the a-th node after it in peers.
//   - order-then-execute: clients talk straight to the ordering
//     service; attempt a goes to orderers[(Hash(txID)+a) % n].
//
// Resubmission stays idempotent whatever the target: orderers and nodes
// deduplicate by transaction id (§3.4.3).
func route(flow core.Flow, node string, peers, orderers []string, txID string, attempt int) (to, kind string) {
	if flow == core.ExecuteOrder || len(orderers) == 0 {
		if attempt == 0 || len(peers) == 0 {
			return node, core.KindSubmit
		}
		i := max(slices.Index(peers, node), 0)
		return peers[(i+attempt)%len(peers)], core.KindSubmit
	}
	return orderers[(uint64(Hash(txID))+uint64(attempt))%uint64(len(orderers))], ordering.KindSubmit
}

// Direct is the in-process transport: it registers one simnet endpoint
// and delivers submissions over the same message fabric node peers use.
// It exists so in-process and dialed clients share one code path — the
// only difference between them is which Transport they hold.
type Direct struct {
	node     NodeBackend
	ep       *simnet.Endpoint
	flow     core.Flow
	orderers []string

	mu      sync.Mutex
	streams map[<-chan core.TxResult]func() // open commit streams and their stop functions
	closed  bool
}

// NewDirect registers endpoint epName on the network and connects it to
// the given node. orderers are the ordering-service endpoint names used
// for order-execute submissions.
func NewDirect(net *simnet.Network, epName string, node NodeBackend, flow core.Flow, orderers []string) (*Direct, error) {
	d := &Direct{
		node:     node,
		flow:     flow,
		orderers: append([]string(nil), orderers...),
		streams:  make(map[<-chan core.TxResult]func()),
	}
	ep, err := net.Register(epName, func(simnet.Message) {})
	if err != nil {
		return nil, err
	}
	d.ep = ep
	return d, nil
}

// Info implements Transport.
func (d *Direct) Info(context.Context) (Info, error) {
	return Info{
		Node:         d.node.Name(),
		Org:          d.node.Org(),
		Flow:         flowName(d.flow),
		Height:       d.node.Height(),
		SealedHeight: d.node.SealedHeight(),
		Orderers:     len(d.orderers),
	}, nil
}

// Submit delivers a transaction on its normal route (attempt 0).
func (d *Direct) Submit(ctx context.Context, txBytes []byte) error {
	return d.SubmitAttempt(ctx, txBytes, 0)
}

// SubmitAttempt implements Transport.
func (d *Direct) SubmitAttempt(_ context.Context, txBytes []byte, attempt int) error {
	if attempt < 0 {
		return fmt.Errorf("transport: negative attempt %d", attempt)
	}
	tx, err := ledger.UnmarshalTransaction(txBytes)
	if err != nil {
		return fmt.Errorf("transport: bad transaction: %w", err)
	}
	to, kind := route(d.flow, d.node.Name(), d.node.Peers(), d.orderers, tx.ID, attempt)
	return d.ep.Send(to, kind, txBytes)
}

// Query implements Transport.
func (d *Direct) Query(_ context.Context, height int64, sql string, params []types.Value) (*engine.Result, error) {
	if height < 0 {
		return d.node.Query(sql, params...)
	}
	return d.node.QueryAt(height, sql, params...)
}

// CommitStream implements Transport.
func (d *Direct) CommitStream(ctx context.Context) (<-chan core.TxResult, func(), error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, nil, fmt.Errorf("transport: direct transport closed")
	}
	src := d.node.SubscribeAll()
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			d.mu.Lock()
			delete(d.streams, src)
			d.mu.Unlock()
			d.node.UnsubscribeAll(src)
		})
	}
	d.streams[src] = stop
	d.mu.Unlock()

	// The forwarder blocks on a slow consumer rather than dropping: the
	// node-side subscription buffer absorbs bursts, and the node drops
	// only when that is full too. out's own slots let a few blocks'
	// results through while the consumer is busy dispatching.
	out := make(chan core.TxResult, 256)
	go func() {
		defer close(out)
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				stop()
				return
			case r := <-src:
				select {
				case out <- r:
				case <-done:
					return
				case <-ctx.Done():
					stop()
					return
				}
			}
		}
	}()
	return out, stop, nil
}

// Close implements Transport.
func (d *Direct) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	stops := make([]func(), 0, len(d.streams))
	for _, stop := range d.streams {
		stops = append(stops, stop)
	}
	d.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	d.ep.Unregister()
	return nil
}

func flowName(f core.Flow) string {
	if f == core.OrderThenExecute {
		return "order-execute"
	}
	return "execute-order"
}
