package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// fakeNode implements NodeBackend for boundary tests without a fabric.
type fakeNode struct {
	mu   sync.Mutex
	subs []chan core.TxResult
}

func (f *fakeNode) Name() string        { return "db.test" }
func (f *fakeNode) Org() string         { return "test" }
func (f *fakeNode) Height() int64       { return 7 }
func (f *fakeNode) SealedHeight() int64 { return 7 }
func (f *fakeNode) Peers() []string     { return []string{"db.peer0", "db.test", "db.peer2"} }

func (f *fakeNode) Query(sql string, params ...types.Value) (*engine.Result, error) {
	if strings.Contains(sql, "boom") {
		return nil, fmt.Errorf("no such table")
	}
	return &engine.Result{Cols: []string{"echo"}, Rows: []types.Row{append(types.Row{types.NewString(sql)}, params...)}}, nil
}

func (f *fakeNode) QueryAt(height int64, sql string, params ...types.Value) (*engine.Result, error) {
	return &engine.Result{Cols: []string{"h"}, Rows: []types.Row{{types.NewInt(height)}}}, nil
}

func (f *fakeNode) SubscribeAll() <-chan core.TxResult {
	ch := make(chan core.TxResult, 16)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch
}

func (f *fakeNode) UnsubscribeAll(ch <-chan core.TxResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range f.subs {
		if (<-chan core.TxResult)(c) == ch {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return
		}
	}
}

func (f *fakeNode) subscriberCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

func (f *fakeNode) push(r core.TxResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ch := range f.subs {
		ch <- r
	}
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *fakeNode) {
	t.Helper()
	node := &fakeNode{}
	if cfg.Node == nil {
		cfg.Node = node
	}
	if cfg.Net == nil {
		cfg.Net = simnet.New(simnet.Loopback())
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, node
}

// TestMalformedRequestsRejected drives every parse-failure path of the
// boundary: each must come back 4xx with a JSON error body, not reach
// the fabric, and bump the rejection counter.
func TestMalformedRequestsRejected(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}

	cases := []struct {
		name, path, body string
	}{
		{"submit junk json", "/v1/submit", "{not json"},
		{"submit empty tx", "/v1/submit", `{"tx": ""}`},
		{"submit garbage tx bytes", "/v1/submit", `{"tx": "Z29vZC1tb3JuaW5n"}`},
		{"submit negative attempt", "/v1/submit", `{"tx": "Z29vZC1tb3JuaW5n", "attempt": -1}`},
		{"submit non-integer attempt", "/v1/submit", `{"tx": "Z29vZC1tb3JuaW5n", "attempt": 1.5}`},
		{"query junk json", "/v1/query", "{{{"},
		{"query empty sql", "/v1/query", `{"sql": "", "height": -1}`},
		{"query unknown value kind", "/v1/query", `{"sql": "SELECT 1", "height": -1, "params": [{"k": "decimal128"}]}`},
		{"relay missing destination", "/v1/relay", `{"from": "x", "kind": ""}`},
	}
	for _, tc := range cases {
		code, msg := post(tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", tc.name, code, msg)
		}
		if msg == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	if got := srv.Rejected(); got != int64(len(cases)) {
		t.Errorf("Rejected() = %d, want %d", got, len(cases))
	}

	// Oversized body: cut off by MaxBytesReader before parsing.
	big := `{"tx": "` + strings.Repeat("A", maxBodyBytes+1024) + `"}`
	if code, _ := post("/v1/submit", big); code != http.StatusBadRequest {
		t.Errorf("oversized submit: status %d, want 400", code)
	}
}

// TestQueryRoundTrip exercises the value codec across the wire,
// including the error path.
func TestQueryRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	c := Dial(srv.URL())
	defer c.Close()

	params := []types.Value{
		types.NewInt(-42), types.NewFloat(2.5), types.NewString("héllo"),
		types.NewBool(true), types.NewBytes([]byte{0, 1, 255}), types.Null(),
	}
	res, err := c.Query(context.Background(), -1, "SELECT $1", params)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Str() != "SELECT $1" {
		t.Fatalf("echoed sql = %q", row[0].Str())
	}
	for i, want := range params {
		got := row[i+1]
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Fatalf("param %d: got %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}

	if _, err := c.Query(context.Background(), -1, "boom", nil); err == nil {
		t.Fatal("query error did not propagate")
	} else if se := err.(*StatusError); se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", se.Code)
	}

	if res, err := c.Query(context.Background(), 3, "SELECT 1", nil); err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("height routing: %v %v", res, err)
	}
}

// TestCommitStreamSubscriberCleanup: a dropped stream client must not
// leave its SubscribeAll channel registered on the node.
func TestCommitStreamSubscriberCleanup(t *testing.T) {
	srv, node := newTestServer(t, ServerConfig{})
	c := Dial(srv.URL())
	defer c.Close()

	ch, stop, err := c.CommitStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "subscriber registered", func() bool { return node.subscriberCount() == 1 && srv.ActiveStreams() == 1 })

	node.push(core.TxResult{ID: "tx1", Block: 3, Committed: true})
	select {
	case r := <-ch:
		if r.ID != "tx1" || r.Block != 3 || !r.Committed {
			t.Fatalf("streamed result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit did not stream")
	}

	stop()
	waitCond(t, "subscriber released", func() bool { return node.subscriberCount() == 0 && srv.ActiveStreams() == 0 })
}

// TestConnectionLimit: with one connection slot, a held-open stream
// starves a second connection until the stream ends.
func TestConnectionLimit(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{MaxConns: 1})
	c := Dial(srv.URL())
	defer c.Close()

	_, stop, err := c.CommitStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "stream holds the slot", func() bool { return srv.ActiveStreams() == 1 })

	// A second connection cannot be accepted while the slot is held.
	blocked := &http.Client{Timeout: 300 * time.Millisecond, Transport: &http.Transport{}}
	if _, err := blocked.Get(srv.URL() + "/v1/info"); err == nil {
		t.Fatal("second connection served despite MaxConns=1")
	}

	stop()
	waitCond(t, "slot released", func() bool { return srv.ActiveStreams() == 0 })
	free := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	resp, err := free.Get(srv.URL() + "/v1/info")
	if err != nil {
		t.Fatalf("request after slot release: %v", err)
	}
	defer resp.Body.Close()
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Node != "db.test" {
		t.Fatalf("info after release = %+v, %v", info, err)
	}
}

// TestRelayInjection: /v1/relay feeds messages into the local fabric.
func TestRelayInjection(t *testing.T) {
	net := simnet.New(simnet.Loopback())
	srv, _ := newTestServer(t, ServerConfig{Net: net})

	got := make(chan simnet.Message, 1)
	if _, err := net.Register("sink", func(m simnet.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	c := Dial(srv.URL())
	defer c.Close()
	if err := c.Relay(context.Background(), "far.away", "sink", "test.kind", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "far.away" || m.Kind != "test.kind" || !bytes.Equal(m.Payload, []byte("payload")) {
			t.Fatalf("relayed message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("relayed message never delivered")
	}
	if srv.Relayed() != 1 {
		t.Fatalf("Relayed() = %d", srv.Relayed())
	}
}

// TestDirectAndServerRouteAlike: for the same (tx id, attempt), the
// in-process transport and the wire server send the submission to the
// same fabric endpoint, in both flows — one routing rule, so a retried
// transaction walks the same failover targets over either transport.
func TestDirectAndServerRouteAlike(t *testing.T) {
	type hop struct{ to, kind string }
	net := simnet.New(simnet.Loopback())
	t.Cleanup(net.Close)
	node := &fakeNode{}
	orderers := []string{"ord0", "ord1", "ord2"}
	got := make(chan hop, 16)
	for _, name := range append(node.Peers(), orderers...) {
		name := name
		if _, err := net.Register(name, func(m simnet.Message) { got <- hop{name, m.Kind} }); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() hop {
		t.Helper()
		select {
		case h := <-got:
			return h
		case <-time.After(5 * time.Second):
			t.Fatal("submission never delivered")
			return hop{}
		}
	}

	for _, flow := range []core.Flow{core.ExecuteOrder, core.OrderThenExecute} {
		name := flowName(flow)
		srv, _ := newTestServer(t, ServerConfig{Node: node, Net: net, Flow: flow, Orderers: orderers, Endpoint: "rpc." + name})
		wire := Dial(srv.URL())
		defer wire.Close()
		direct, err := NewDirect(net, "client."+name, node, flow, orderers)
		if err != nil {
			t.Fatal(err)
		}
		defer direct.Close()

		seen := make(map[string]bool)
		for _, id := range []string{"tx-a", "tx-b", "tx-c", "tx-d"} {
			payload := ledger.MarshalTransaction(&ledger.Transaction{ID: id, Username: "u", Contract: "c", Signature: []byte{1}})
			for attempt := 0; attempt < 4; attempt++ {
				if err := direct.SubmitAttempt(context.Background(), payload, attempt); err != nil {
					t.Fatal(err)
				}
				d := recv()
				if err := wire.SubmitAttempt(context.Background(), payload, attempt); err != nil {
					t.Fatal(err)
				}
				if w := recv(); w != d {
					t.Fatalf("%s %s attempt %d: Direct sent to %v, Server to %v", name, id, attempt, d, w)
				}
				want, _ := route(flow, node.Name(), node.Peers(), orderers, id, attempt)
				if d.to != want {
					t.Fatalf("%s %s attempt %d: sent to %s, route says %s", name, id, attempt, d.to, want)
				}
				seen[d.to] = true
			}
		}
		if len(seen) < 3 {
			t.Fatalf("%s: attempts reached only %v; failover should rotate through every target", name, seen)
		}
	}
}

func TestRouteMatch(t *testing.T) {
	cases := []struct {
		name, route string
		want        bool
	}{
		{"orderer2", "orderer2", true},
		{"orderer2.seq", "orderer2", true},
		{"orderer20", "orderer2", false},
		{"orderer20.seq", "orderer2", false},
		{"db.org1", "db.org1", true},
		{"db.org10", "db.org1", false},
		{"kafka.seq", "kafka.seq", true},
	}
	for _, tc := range cases {
		if got := routeMatch(tc.name, tc.route); got != tc.want {
			t.Errorf("routeMatch(%q, %q) = %v, want %v", tc.name, tc.route, got, tc.want)
		}
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
