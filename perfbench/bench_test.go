package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"bcrdb"
	"bcrdb/internal/engine"
	"bcrdb/internal/storage"
)

// tinyConfig shrinks a workload to a second-long pass so the gate's
// self-test runs in a few seconds.
func tinyConfig(t *testing.T, workload string) runConfig {
	t.Helper()
	doc, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := doc.Workloads[workload]
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	s.FixedRate, s.InFlight = 300, 64
	if s.Contract != "transfer" {
		s.PreloadRows = 100
	}
	return runConfig{
		spec:    s,
		seed:    7,
		seconds: 1,
		warmup:  200 * time.Millisecond,
		setups:  1,
		drain:   5 * time.Second,
		reads:   40,
		dir:     t.TempDir(),
		hooks:   hooks{dropFixed: -1},
	}
}

// Clean runs of every workload pass the gate and measure exactly the
// metrics BENCHMARK.json lists.
func TestGatePassesCleanRuns(t *testing.T) {
	doc, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := loadTables("../BENCHMARK.json", doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range specNames(doc.Workloads) {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.traced = true
			res, err := runPass(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.layers["sat.tput_tps"] <= 0 || res.e2e["lat_p50_ms"] <= 0 {
				t.Fatalf("clean run: failed=%d metrics=%v", res.failed, res.e2e)
			}
			if res.layers["trace.broken_spans"] != 0 {
				t.Errorf("trace.broken_spans = %v on a clean run", res.layers["trace.broken_spans"])
			}
			if err := sameNames(res.e2e, tabs.e2e); err != nil {
				t.Error("end-to-end:", err)
			}
			if err := sameNames(res.layers, tabs.layers); err != nil {
				t.Error("per-layer:", err)
			}
		})
	}
}

// A row planted on one replica behind consensus's back must fail the
// run rather than be measured.
func TestGateFailsOnPlantedDivergence(t *testing.T) {
	cfg := tinyConfig(t, "simple-oe-mem")
	cfg.hooks.beforeGate = func(nw *bcrdb.Network) {
		n := nw.Node(2)
		h := n.Height()
		rec := storage.NewTxRecord(n.Store().BeginTx(), h)
		ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: h, Rec: rec}
		if _, err := n.Engine().ExecSQL(ctx, `INSERT INTO kv VALUES (42424242, 'planted', 'planted')`); err != nil {
			t.Errorf("planting the row: %v", err)
		}
		n.Store().CommitTx(rec, h)
	}
	res, err := runPass(cfg)
	if err == nil {
		t.Fatalf("planted divergence was measured: %v", res.e2e)
	}
	if res != nil || !strings.Contains(err.Error(), "gate:") {
		t.Fatalf("want a gate failure and no result, got %v, %v", res, err)
	}
}

// A submission lost before it reaches the network is attempted, never
// resolved, and must show up as failed, not vanish.
func TestDroppedSubmissionIsCountedAsFailed(t *testing.T) {
	cfg := tinyConfig(t, "simple-oe-mem")
	cfg.hooks.dropFixed = 100 // inside the measured window
	cfg.traced = true
	res, err := runPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("failed = %d, want 1", res.failed)
	}
	attempted, committed := res.inputs["attempted_txs"], res.inputs["committed_txs"]
	if committed != attempted-1 {
		t.Fatalf("committed %d of %d attempted, want all but the dropped one", committed, attempted)
	}
	want := 1 / float64(attempted)
	if got := res.layers["gate.fail_ratio"]; got != want {
		t.Fatalf("gate.fail_ratio = %v, want %v", got, want)
	}
	if got := res.e2e["commit_ratio"]; math.Abs(got-(1-want)) > 1e-12 {
		t.Fatalf("commit_ratio = %v, want %v", got, 1-want)
	}
}
