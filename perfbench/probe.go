package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bcrdb"
	"bcrdb/internal/core"
	"bcrdb/internal/identity"
)

// clockBase anchors now(): wall-clock nanoseconds advanced by the
// monotonic clock, comparable with the orderers' block Timestamps
// (time.Now().UnixNano()) yet immune to clock steps within a run.
var clockBase = time.Now()

func now() int64 { return clockBase.UnixNano() + int64(time.Since(clockBase)) }

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// probe is one reading of every counter the benchmark diffs over a
// window. All of them are read from outside the program.
type probe struct {
	at         int64
	nodes      []core.Snapshot
	msgs       int64
	bytes      int64
	vHits      uint64
	vMisses    uint64
	cpuNs      int64
	syscw      int64
	writeBytes int64
	files      [3]int64 // node 0's .blocks, .wal, .store.wal sizes
	gcCPU      float64  // seconds
	allocBytes uint64
	steal      int64 // host CPU time stolen from this VM, all CPUs, in ticks
	cpuTicks   int64 // all CPU time of this VM, in ticks
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func takeProbe(nw *bcrdb.Network, dataDir string) probe {
	p := probe{at: now()}
	for _, n := range nw.Nodes() {
		p.nodes = append(p.nodes, n.Metrics().Snapshot())
	}
	p.msgs, p.bytes = nw.Net().Stats()
	p.vHits, p.vMisses = identity.VerifyCacheStats()
	p.cpuNs = processCPU()
	p.syscw, p.writeBytes = procIO()
	p.steal, p.cpuTicks = procStat()
	if dataDir != "" {
		n0 := nw.Node(0)
		dir := filepath.Join(dataDir, "org1")
		for i, suffix := range []string{".blocks", ".wal", ".store.wal"} {
			if st, err := os.Stat(filepath.Join(dir, n0.Name()+suffix)); err == nil {
				p.files[i] = st.Size()
			}
		}
	}
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	p.gcCPU = s[0].Value.Float64()
	p.allocBytes = s[1].Value.Uint64()
	return p
}

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procIO reads the write-syscall and storage-write counters of
// /proc/self/io; both read 0 where the file is unavailable.
func procIO() (syscw, writeBytes int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscw":
			syscw = n
		case "write_bytes":
			writeBytes = n
		}
	}
	return syscw, writeBytes
}

// procStat reads the steal and total ticks of all CPUs from /proc/stat;
// both read 0 where the file is unavailable.
func procStat() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
