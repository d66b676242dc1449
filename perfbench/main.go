// Command perfbench is bcrdb's repository benchmark. It runs one
// workload on a fresh in-process 3-org network, gates the run on the
// correctness of its outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload simple-oe-mem --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a pass over the same inputs, whose spans go to
// .bench_build/perfbench/trace-<workload>-<seed>.jsonl. Both passes
// record the same timestamps, so the end-to-end figures include that
// instrumentation and the two passes differ only in what they report.
//
// The metric names and units are read from BENCHMARK.json in the working
// directory, which also records why each workload was chosen; the
// workloads' fixed rates and caps are in workloads.json. A run that
// fails its correctness gate prints no result and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(benchMain()) }

func benchMain() int {
	doc, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tabs, err := loadTables("BENCHMARK.json", doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	specs := doc.Workloads
	name := flag.String("workload", "", "workload: "+strings.Join(specNames(specs), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per pass (half fixed-rate, half saturation)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	flag.Parse()
	spec, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "data-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		spec:    spec,
		seed:    *seed,
		seconds: float64(*seconds),
		warmup:  time.Second,
		setups:  5,
		drain:   10 * time.Second,
		reads:   readRate,
		traced:  *trace == 1,
		dir:     dir,
		hooks:   hooks{dropFixed: -1},
	}
	res, err := runPass(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", spec.Name, *seed, err)
		return 1
	}
	values, units := res.e2e, tabs.e2e
	if cfg.traced {
		values, units = res.layers, tabs.layers
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", spec.Name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := sameNames(values, units); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := result{Metrics: map[string]metric{}}
	for n, v := range values {
		out.Metrics[n] = metric{v, units[n]}
	}
	out.Correct, out.Attempted, out.Failed = true, res.attempted, res.failed

	info, _ := json.Marshal(map[string]any{ // plain values: cannot fail
		"workload":  spec.Name,
		"seed":      *seed,
		"seconds":   *seconds,
		"trace":     *trace,
		"inputs":    res.inputs,
		"host":      hostFacts(dir),
		"steal_pct": res.stealPct,
	})
	fmt.Println(string(info))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostFacts describes where the numbers were taken. Disk numbers belong
// to the filesystem named here, not to a device.
func hostFacts(dataDir string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"data_fs":    "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		facts["kernel"] = strings.TrimSpace(string(b))
	}
	if fs := filesystemOf(dataDir); fs != "" {
		facts["data_fs"] = fs
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				facts["commit"] = s.Value
			}
		}
	}
	return facts
}

// filesystemOf returns the type of the mount holding path, from the
// longest matching mount point in /proc/self/mounts.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return ""
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return ""
	}
	defer f.Close()
	type mount struct{ dir, fs string }
	var ms []mount
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 {
			ms = append(ms, mount{fields[1], fields[2]})
		}
	}
	sort.Slice(ms, func(i, j int) bool { return len(ms[i].dir) > len(ms[j].dir) })
	for _, m := range ms {
		if abs == m.dir || strings.HasPrefix(abs, strings.TrimSuffix(m.dir, "/")+"/") {
			return m.fs
		}
	}
	return ""
}
