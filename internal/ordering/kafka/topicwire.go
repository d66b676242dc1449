// Topic-over-wire: the simulated Kafka topic as a network service, so a
// multi-process cluster keeps exactly one trusted sequencer (the paper's
// Kafka+ZooKeeper cluster is likewise a single external service all
// orderer nodes talk to). One process hosts the real Topic behind a
// TopicHost endpoint; orderers in other processes attach a TopicClient,
// which satisfies the same TopicRef contract the in-process Topic does.
//
// Total order is preserved for free: every record flows host → subscriber
// over one simnet link, and simnet links are FIFO. Sequencer timestamps
// are stamped once, by the host, and carried to every subscriber, so all
// consumers cut identical blocks — the property the in-process Topic
// guarantees by construction.
package kafka

import (
	"fmt"
	"sync"

	"bcrdb/internal/codec"
	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
)

// TopicEndpoint is the well-known endpoint name of the topic host.
const TopicEndpoint = "kafka.seq"

// Wire kinds between topic clients and the topic host.
const (
	kindSeqPublish = "seq.publish" // client → host: one record (ts ignored)
	kindSeqSub     = "seq.sub"     // client → host: payload = subscriber endpoint
	kindSeqUnsub   = "seq.unsub"   // client → host: payload = subscriber endpoint
	kindSeqRecord  = "seq.record"  // host → client: one record with host timestamp
)

// TopicRef is what an Orderer needs from the totally ordered log: the
// in-process *Topic and the cross-process *TopicClient both satisfy it.
type TopicRef interface {
	subscribe() (int, *simnet.Queue[record])
	unsubscribe(id int)
	publish(r record)
}

func marshalRecord(r record) []byte {
	e := codec.NewBuf(64)
	e.Byte(byte(r.kind))
	e.Varint(r.ts)
	switch r.kind {
	case msgTx:
		e.Bytes2(ledger.MarshalTransaction(r.tx))
	case msgTTC:
		e.Uvarint(r.ttc)
	case msgCheckpoint:
		e.Bytes2(ledger.MarshalCheckpoint(r.cp))
	}
	return e.Bytes()
}

func unmarshalRecord(data []byte) (record, error) {
	d := codec.NewDec(data)
	r := record{kind: msgKind(d.Byte())}
	r.ts = d.Varint()
	switch r.kind {
	case msgTx:
		tx, err := ledger.UnmarshalTransaction(d.Bytes2())
		if err != nil {
			return r, err
		}
		r.tx = tx
	case msgTTC:
		r.ttc = d.Uvarint()
	case msgCheckpoint:
		cp, err := ledger.UnmarshalCheckpoint(d.Bytes2())
		if err != nil {
			return r, err
		}
		r.cp = cp
	default:
		return r, fmt.Errorf("kafka: unknown topic record kind %d", r.kind)
	}
	return r, d.Done()
}

// TopicHost exposes a Topic to other processes. The hosting process's
// own orderers keep using the Topic directly.
type TopicHost struct {
	topic *Topic
	ep    *simnet.Endpoint

	mu   sync.Mutex
	subs map[string]*hostSub // subscriber endpoint → forwarder
}

type hostSub struct {
	id   int
	done chan struct{}
}

// ServeTopic registers the topic host endpoint on the network.
func ServeTopic(topic *Topic, net *simnet.Network) (*TopicHost, error) {
	h := &TopicHost{topic: topic, subs: make(map[string]*hostSub)}
	ep, err := net.Register(TopicEndpoint, h.onMessage)
	if err != nil {
		return nil, err
	}
	h.ep = ep
	return h, nil
}

func (h *TopicHost) onMessage(m simnet.Message) {
	switch m.Kind {
	case kindSeqPublish:
		r, err := unmarshalRecord(m.Payload)
		if err != nil {
			return
		}
		h.topic.publish(r) // the host stamps the authoritative ts
	case kindSeqSub:
		h.addSub(string(m.Payload))
	case kindSeqUnsub:
		h.dropSub(string(m.Payload))
	}
}

func (h *TopicHost) addSub(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[name]; ok {
		return
	}
	id, q := h.topic.subscribe()
	s := &hostSub{id: id, done: make(chan struct{})}
	h.subs[name] = s
	go func() {
		for {
			r, err := q.Get(s.done)
			if err != nil {
				return
			}
			_ = h.ep.Send(name, kindSeqRecord, marshalRecord(r))
		}
	}()
}

func (h *TopicHost) dropSub(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, ok := h.subs[name]; ok {
		h.topic.unsubscribe(s.id)
		close(s.done)
		delete(h.subs, name)
	}
}

// Stop detaches every subscriber and unregisters the host endpoint.
func (h *TopicHost) Stop() {
	h.mu.Lock()
	for name, s := range h.subs {
		h.topic.unsubscribe(s.id)
		close(s.done)
		delete(h.subs, name)
	}
	h.mu.Unlock()
	h.ep.Unregister()
}

// TopicClient attaches an out-of-process orderer to the topic host. It
// registers its own endpoint ("<owner>.seq") for the record stream; in
// cluster mode the messages cross processes through the simnet gateway
// relay, which preserves per-link FIFO and therefore total order.
type TopicClient struct {
	ep *simnet.Endpoint

	mu     sync.Mutex
	nextID int
	subs   map[int]*simnet.Queue[record]
}

// DialTopic creates the client endpoint for one orderer.
func DialTopic(net *simnet.Network, owner string) (*TopicClient, error) {
	c := &TopicClient{subs: make(map[int]*simnet.Queue[record])}
	ep, err := net.Register(owner+".seq", c.onMessage)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	return c, nil
}

func (c *TopicClient) onMessage(m simnet.Message) {
	if m.Kind != kindSeqRecord {
		return
	}
	r, err := unmarshalRecord(m.Payload)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range c.subs {
		// Blocks like Topic.publish, and cannot fail for the same reason;
		// a stalled consumer stalls only its own link.
		_ = q.Put(r, nil)
	}
}

func (c *TopicClient) subscribe() (int, *simnet.Queue[record]) {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	q := simnet.NewQueue[record](subscriberQueue)
	c.subs[id] = q
	n := len(c.subs)
	c.mu.Unlock()
	if n == 1 {
		_ = c.ep.Send(TopicEndpoint, kindSeqSub, []byte(c.ep.Name()))
	}
	return id, q
}

func (c *TopicClient) unsubscribe(id int) {
	c.mu.Lock()
	delete(c.subs, id)
	n := len(c.subs)
	c.mu.Unlock()
	if n == 0 {
		_ = c.ep.Send(TopicEndpoint, kindSeqUnsub, []byte(c.ep.Name()))
	}
}

func (c *TopicClient) publish(r record) {
	_ = c.ep.Send(TopicEndpoint, kindSeqPublish, marshalRecord(r))
}

// Close unregisters the client endpoint.
func (c *TopicClient) Close() {
	c.mu.Lock()
	n := len(c.subs)
	c.mu.Unlock()
	if n > 0 {
		_ = c.ep.Send(TopicEndpoint, kindSeqUnsub, []byte(c.ep.Name()))
	}
	c.ep.Unregister()
}
