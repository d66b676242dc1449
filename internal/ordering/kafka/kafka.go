// Package kafka implements the crash-fault-tolerant ordering service of
// §4.4: orderer nodes publish transactions and time-to-cut markers to a
// totally ordered topic (the Kafka+ZooKeeper cluster, simulated here as a
// trusted in-process sequencer) and independently cut identical blocks
// from the topic stream.
//
// Substitution note (DESIGN.md): the real system trusts the Kafka cluster
// to order and retain messages across orderer crashes; Topic provides
// exactly those guarantees. Orderer nodes remain untrusted by peers —
// each signs the blocks it delivers.
//
// Every topic subscriber reads from a simnet.Queue: queue memory follows
// occupancy, and the capacity is a bound, not an allocation.
package kafka

import (
	"sync"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

// msgKind tags topic records.
type msgKind uint8

const (
	msgTx msgKind = iota
	msgTTC
	msgCheckpoint
)

// record is one entry of the totally ordered topic.
type record struct {
	kind msgKind
	tx   *ledger.Transaction
	ttc  uint64
	cp   *ledger.Checkpoint
	ts   int64 // sequencer timestamp: identical for all consumers
}

// Topic is the trusted totally-ordered log. Every subscriber observes the
// same records in the same order with the same timestamps.
type Topic struct {
	mu      sync.Mutex
	subs    map[int]*simnet.Queue[record]
	nextSub int
	now     func() time.Time
}

// subscriberQueue bounds how far one topic consumer may fall behind
// before publishing stalls.
const subscriberQueue = 65536

// NewTopic returns an empty topic. now may be nil for wall-clock time.
func NewTopic(now func() time.Time) *Topic {
	if now == nil {
		now = time.Now
	}
	return &Topic{now: now, subs: make(map[int]*simnet.Queue[record])}
}

// subscribe returns an ordered stream of all future records and the
// subscription id for unsubscribe.
func (t *Topic) subscribe() (int, *simnet.Queue[record]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextSub
	t.nextSub++
	q := simnet.NewQueue[record](subscriberQueue)
	t.subs[id] = q
	return id, q
}

// unsubscribe detaches a crashed consumer so it cannot stall the topic.
func (t *Topic) unsubscribe(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.subs, id)
}

func (t *Topic) publish(r record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.ts = t.now().UnixNano()
	for _, q := range t.subs {
		// A nil done never closes, so Put cannot fail: a stalled consumer
		// blocks the topic like a slow Kafka consumer group member.
		_ = q.Put(r, nil)
	}
}

// Orderer is one ordering-service node. It receives transactions and
// checkpoints from peers over the network, publishes them to the topic,
// consumes the topic, cuts blocks and delivers them (signed) to its
// connected peers.
type Orderer struct {
	name   string
	signer *identity.Signer
	topic  TopicRef
	cfg    ordering.Config
	ep     *simnet.Endpoint
	peers  []string

	mu            sync.Mutex
	cutter        *ordering.Cutter
	timer         *time.Timer
	stopped       bool
	done          chan struct{}
	subID         int
	lastDelivered uint64

	delivered func(*ledger.Block) // test hook
}

// NewOrderer creates and starts an orderer node attached to the topic —
// the in-process *Topic, or a *TopicClient reaching a topic hosted in
// another process. peers are the endpoint names this orderer delivers
// blocks to.
func NewOrderer(name string, signer *identity.Signer, topic TopicRef, net *simnet.Network, peers []string, cfg ordering.Config) (*Orderer, error) {
	o := &Orderer{
		name:   name,
		signer: signer,
		topic:  topic,
		cfg:    cfg.WithDefaults(),
		peers:  append([]string(nil), peers...),
		cutter: ordering.NewCutter(cfg),
		done:   make(chan struct{}),
	}
	ep, err := net.Register(name, o.onMessage)
	if err != nil {
		return nil, err
	}
	o.ep = ep
	id, q := topic.subscribe()
	o.subID = id
	go o.consume(q)
	go o.heartbeatLoop()
	return o, nil
}

// heartbeatLoop proves liveness to delivery peers between blocks, so a
// peer hearing nothing can conclude its orderer crashed and fail over.
// The payload carries the last delivered block number: a peer that is
// behind it knows to catch up from its database peers.
func (o *Orderer) heartbeatLoop() {
	t := time.NewTicker(o.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-t.C:
			o.mu.Lock()
			last := o.lastDelivered
			peers := append([]string(nil), o.peers...)
			o.mu.Unlock()
			payload := ordering.EncodeHeartbeat(last)
			for _, p := range peers {
				_ = o.ep.Send(p, ordering.KindHeartbeat, payload)
			}
		}
	}
}

// addPeer subscribes a database node to this orderer's deliveries
// (orderer failover). Idempotent.
func (o *Orderer) addPeer(name string) {
	o.mu.Lock()
	for _, p := range o.peers {
		if p == name {
			o.mu.Unlock()
			return
		}
	}
	o.peers = append(o.peers, name)
	last := o.lastDelivered
	o.mu.Unlock()
	// Answer immediately so the failed-over peer's delivery deadline
	// resets without waiting a heartbeat period.
	_ = o.ep.Send(name, ordering.KindHeartbeat, ordering.EncodeHeartbeat(last))
}

// Name returns the orderer's endpoint name.
func (o *Orderer) Name() string { return o.name }

// Stop halts the orderer (crash simulation).
func (o *Orderer) Stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return
	}
	o.stopped = true
	close(o.done)
	o.ep.Stop()
	o.topic.unsubscribe(o.subID)
	if o.timer != nil {
		o.timer.Stop()
	}
}

// onMessage handles peer traffic: publish everything to the topic.
func (o *Orderer) onMessage(m simnet.Message) {
	switch m.Kind {
	case ordering.KindSubmit:
		tx, err := ledger.UnmarshalTransaction(m.Payload)
		if err != nil {
			return
		}
		o.topic.publish(record{kind: msgTx, tx: tx})
	case ordering.KindCheckpoint:
		cp, err := ledger.UnmarshalCheckpoint(m.Payload)
		if err != nil {
			return
		}
		o.topic.publish(record{kind: msgCheckpoint, cp: cp})
	case ordering.KindSubscribe:
		o.addPeer(m.From)
	case ordering.KindUnsubscribe:
		o.removePeer(m.From)
	}
}

// removePeer drops a database node from the delivery peers (the node
// failed over to another orderer while this one was unreachable).
func (o *Orderer) removePeer(name string) {
	o.mu.Lock()
	for i, p := range o.peers {
		if p == name {
			o.peers = append(o.peers[:i], o.peers[i+1:]...)
			break
		}
	}
	o.mu.Unlock()
}

// SubmitLocal injects a transaction directly (clients colocated with an
// orderer, used by tests and benchmarks).
func (o *Orderer) SubmitLocal(tx *ledger.Transaction) {
	o.topic.publish(record{kind: msgTx, tx: tx})
}

// consume drives the cutter from the topic stream.
func (o *Orderer) consume(q *simnet.Queue[record]) {
	for {
		r, err := q.Get(o.done)
		if err != nil {
			return
		}
		o.mu.Lock()
		var blocks []*ledger.Block
		switch r.kind {
		case msgTx:
			hadPending := o.cutter.Pending() > 0
			if b := o.cutter.AddTx(r.tx, r.ts); b != nil {
				blocks = append(blocks, b)
			} else if !hadPending && o.cutter.Pending() > 0 {
				o.armTimerLocked(o.cutter.NextBlock())
			}
		case msgTTC:
			if b := o.cutter.TimeToCut(r.ttc, r.ts); b != nil {
				blocks = append(blocks, b)
			}
		case msgCheckpoint:
			o.cutter.AddCheckpoint(r.cp)
		}
		// Rearm the timer when transactions remain pending.
		if len(blocks) > 0 && o.cutter.Pending() > 0 {
			o.armTimerLocked(o.cutter.NextBlock())
		}
		o.mu.Unlock()
		for _, b := range blocks {
			o.deliver(b)
		}
	}
}

// armTimerLocked schedules a time-to-cut for the given block number.
func (o *Orderer) armTimerLocked(block uint64) {
	if o.stopped {
		return
	}
	if o.timer != nil {
		o.timer.Stop()
	}
	o.timer = time.AfterFunc(o.cfg.BlockTimeout, func() {
		o.mu.Lock()
		stopped := o.stopped
		o.mu.Unlock()
		if !stopped {
			o.topic.publish(record{kind: msgTTC, ttc: block})
		}
	})
}

// deliver signs the block and sends it to the connected peers.
func (o *Orderer) deliver(b *ledger.Block) {
	signed := *b // shallow copy; Txs shared (immutable)
	signed.Sigs = []ledger.BlockSig{{
		Orderer:   o.name,
		Signature: o.signer.Sign(b.Hash[:]),
	}}
	data := signed.Encode()
	o.mu.Lock()
	if b.Number > o.lastDelivered {
		o.lastDelivered = b.Number
	}
	peers := append([]string(nil), o.peers...)
	o.mu.Unlock()
	for _, p := range peers {
		_ = o.ep.Send(p, ordering.KindBlock, data)
	}
	if o.delivered != nil {
		o.delivered(&signed)
	}
}

// SetDeliveredHook installs a test hook invoked for every delivered block.
func (o *Orderer) SetDeliveredHook(fn func(*ledger.Block)) { o.delivered = fn }
