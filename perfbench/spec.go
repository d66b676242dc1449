package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"bcrdb"
	"bcrdb/internal/workload"
)

// workloads.json holds every workload's fixed rates and caps; the
// program never derives a rate from a peak it measured, so a parent
// commit and its child are offered the same load.
//
//go:embed workloads.json
var workloadsJSON []byte

// Spec is one workload as recorded in workloads.json.
type Spec struct {
	Name        string  `json:"-"`
	Flow        string  `json:"flow"`
	Contract    string  `json:"contract"`
	Backend     string  `json:"backend"`
	BlockSize   int     `json:"block_size"`
	FixedRate   float64 `json:"fixed_rate_tps"`
	InFlight    int     `json:"inflight"`
	PreloadRows int     `json:"preload_rows"`
	Branches    int     `json:"branches"`
	ZipfS       float64 `json:"zipf_s"`
	ZipfV       float64 `json:"zipf_v"`
}

// workloadsDoc is workloads.json: the workloads by name, and the
// per-layer metrics with the end-to-end metrics each should move.
type workloadsDoc struct {
	Workloads map[string]Spec `json:"workloads"`
	Layers    []struct {
		Metric string   `json:"metric"`
		Moves  []string `json:"moves"`
	} `json:"layers"`
}

func loadSpecs() (workloadsDoc, error) {
	var doc workloadsDoc
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		return doc, fmt.Errorf("workloads.json: %w", err)
	}
	for name, s := range doc.Workloads {
		s.Name = name
		doc.Workloads[name] = s
	}
	return doc, nil
}

// metricTables holds the unit of every metric a pass reports, by name.
type metricTables struct {
	e2e, layers map[string]string
}

// loadTables reads the metric names and units from BENCHMARK.json, the
// one place they are listed. It checks that BENCHMARK.json names the
// same workloads as workloads.json, and that workloads.json maps every
// per-layer metric, and only listed ones, to the metrics it should move.
func loadTables(path string, doc workloadsDoc) (metricTables, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return metricTables{}, err
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return metricTables{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(bench.Workloads) != len(doc.Workloads) {
		return metricTables{}, fmt.Errorf("%s lists %d workloads, workloads.json %d", path, len(bench.Workloads), len(doc.Workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := doc.Workloads[w.Name]; !ok {
			return metricTables{}, fmt.Errorf("workload %s of %s is not in workloads.json", w.Name, path)
		}
	}
	t := metricTables{e2e: map[string]string{}, layers: map[string]string{}}
	for _, m := range bench.EndToEnd {
		t.e2e[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		t.layers[m.Name] = m.Unit
	}
	mapped := map[string]bool{}
	for _, l := range doc.Layers {
		if _, ok := t.layers[l.Metric]; !ok {
			return metricTables{}, fmt.Errorf("workloads.json maps %s, which %s does not list", l.Metric, path)
		}
		mapped[l.Metric] = true
		for _, m := range l.Moves {
			if t.e2e[m] == "" && t.layers[m] == "" {
				return metricTables{}, fmt.Errorf("workloads.json says %s moves %s, which %s does not list", l.Metric, m, path)
			}
		}
	}
	for name := range t.layers {
		if !mapped[name] {
			return metricTables{}, fmt.Errorf("workloads.json does not map per-layer metric %s", name)
		}
	}
	return t, nil
}

// sameNames reports a metric that was measured but is not listed, or is
// listed but was not measured.
func sameNames(measured map[string]float64, listed map[string]string) error {
	for n := range measured {
		if _, ok := listed[n]; !ok {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", n)
		}
	}
	for n := range listed {
		if _, ok := measured[n]; !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which this pass does not measure", n)
		}
	}
	return nil
}

func specNames(specs map[string]Spec) []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s Spec) flow() bcrdb.Flow {
	if s.Flow == "execute-order" {
		return bcrdb.ExecuteOrder
	}
	return bcrdb.OrderThenExecute
}

// presigned reports whether the whole transaction pool is signed before
// the run. An execute-order transaction names its snapshot height in its
// signed id, so it can only be signed when due.
func (s Spec) presigned() bool { return s.flow() == bcrdb.OrderThenExecute }

// The read mix offered alongside every fixed-rate phase, on org1's node.
const (
	readRate  = 200  // reads/s
	scanShare = 0.05 // the rest are point lookups
)

// Transfer amounts are small against the opening balance, so the
// contract's insufficient-funds branch never fires and every abort is an
// SSI abort.
const (
	openingBalance = 1_000_000
	maxTransfer    = 100
	transferSrc    = `
CREATE FUNCTION transfer(p_from BIGINT, p_to BIGINT, p_amt BIGINT, p_nonce BIGINT) RETURNS VOID AS $$
DECLARE
	bal BIGINT;
BEGIN
	SELECT balance INTO bal FROM accounts WHERE id = p_from;
	IF bal < p_amt THEN
		RAISE EXCEPTION 'insufficient';
	END IF;
	UPDATE accounts SET balance = balance - p_amt WHERE id = p_from;
	UPDATE accounts SET balance = balance + p_amt WHERE id = p_to;
END;
$$ LANGUAGE plpgsql;`
)

// genesis returns the workload's initial state. The simple workloads use
// the paper's simple-insert contract and preload kv rows (ids 1..N,
// below every transaction's id) so point reads and scans have fixed,
// checkable answers.
func (s Spec) genesis() bcrdb.Genesis {
	var table string
	var row func(i int) string
	var g bcrdb.Genesis
	switch s.Contract {
	case "transfer":
		g.SQL = []string{`CREATE TABLE accounts (id BIGINT PRIMARY KEY, branch BIGINT NOT NULL, balance BIGINT NOT NULL)`}
		g.Contracts = []string{transferSrc}
		table = "accounts"
		row = func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, i%s.Branches, openingBalance) }
	default:
		g = workload.Genesis(workload.Simple)
		g.SQL = append([]string(nil), g.SQL...)
		table = "kv"
		row = func(i int) string { return fmt.Sprintf("(%d, 'key-%d', '%s')", i, i, preloadValue(i)) }
	}
	const batch = 500
	for start := 1; start <= s.PreloadRows; start += batch {
		var rows []string
		for i := start; i < start+batch && i <= s.PreloadRows; i++ {
			rows = append(rows, row(i))
		}
		g.SQL = append(g.SQL, "INSERT INTO "+table+" VALUES "+strings.Join(rows, ", "))
	}
	return g
}

func preloadValue(i int) string { return fmt.Sprintf("val-%d", i) }

func (s Spec) totalBalance() int64 { return int64(s.PreloadRows) * openingBalance }
