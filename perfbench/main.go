// Command perfbench is the repository's benchmark. It boots a full
// in-process Pesos deployment (attested enclave controller, mutual-TLS
// REST, TLS drive links, observability on, group commit, hedged reads
// and partial policy evaluation), loads it, and replays a fixed
// seed-generated trace closed-loop from one client per CPU, verifying
// every reply. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// every other slice of the trace is replayed traced and the metrics
// are the per-layer split. README.md describes the workloads
// and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's trace and payloads are generated from")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; fixes the trace length")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced replay instead of the end-to-end ones")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(sp, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, replays the trace and computes the
// metrics. report receives the environment and sample counts.
func run(sp spec, seed int64, seconds int, traced bool, report io.Writer) (*result, error) {
	nClients := runtime.NumCPU()
	trace, err := genTrace(sp, seed, sp.traceLen(seconds), nClients)
	if err != nil {
		return nil, err
	}
	writeEnv(report, sp, seed, nClients, sp.traceLen(seconds))

	t0 := time.Now()
	d, err := newDeployment(sp, seed, nClients)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if traced {
		defer d.close()
		return runTraced(d, trace, report)
	}

	st, parts := &opStats{}, make([]*opStats, sp.segments)
	for i := range parts {
		parts[i] = d.replay(segment(trace, i, sp.segments), nil)
		st.add(parts[i])
	}
	// The fresh stream objects still live differ by seed; retiring
	// them leaves the fixed read set as the live data.
	att, failed := d.retire()
	st.attempted += att
	st.failed += failed
	stored, live := d.storedBytes(), d.liveBytes()
	// Read before the extra set-ups below, so the peak covers this
	// run's one deployment and its replay.
	peakMB := peakRSSMB()
	d.close()

	// setup_s is the median of several set-ups: the measured one and
	// extra ones torn down straight away.
	setups := []float64{setup.Seconds()}
	for len(setups) < sp.setups {
		t := time.Now()
		extra, err := newDeployment(sp, seed, nClients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		extra.close()
	}

	// Each timing and rate is the median of its per-segment values.
	seg := func(f func(s *opStats) float64) float64 {
		v := make([]float64, len(parts))
		for i, p := range parts {
			v[i] = f(p)
		}
		return median(v)
	}
	pct := func(k opKind, q float64) float64 {
		return seg(func(s *opStats) float64 { return ms(quantile(s.lat[k], q)) })
	}
	rate := func(k opKind) float64 {
		return seg(func(s *opStats) float64 { return ratio(float64(s.bytes[k])/1e6, s.busy[k].Seconds()) })
	}
	m := map[string]metric{
		"ops_s":                 {seg(func(s *opStats) float64 { return float64(s.completed) / s.elapsed.Seconds() }), "1/s"},
		"get_p50_ms":            {pct(opGet, 0.50), "ms"},
		"get_p95_ms":            {pct(opGet, 0.95), "ms"},
		"put_p50_ms":            {pct(opPut, 0.50), "ms"},
		"put_p95_ms":            {pct(opPut, 0.95), "ms"},
		"scan_p50_ms":           {pct(opScan, 0.50), "ms"},
		"get_mb_s":              {rate(opGet), "MB/s"},
		"put_mb_s":              {rate(opPut), "MB/s"},
		"stored_bytes_per_byte": {ratio(float64(stored), float64(live)), "ratio"},
		"peak_rss_mb":           {peakMB, "MB"},
		"setup_s":               {median(setups), "s"},
	}
	segRates := make([]string, len(parts))
	for i, p := range parts {
		segRates[i] = strconv.FormatFloat(float64(p.completed)/p.elapsed.Seconds(), 'f', 1, 64)
	}
	fmt.Fprintf(report, "samples: get=%d put=%d scan=%d in %d segments; elapsed %.3fs; segment ops/s %s; setups %v s\n",
		len(st.lat[opGet]), len(st.lat[opPut]), len(st.lat[opScan]), len(parts), st.elapsed.Seconds(),
		strings.Join(segRates, " "), setups)
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// writeEnv records what the numbers were measured on and with.
func writeEnv(w io.Writer, sp spec, seed int64, nClients, ops int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	objectCache := sp.objectCache
	if objectCache == 0 {
		objectCache = 48 * mib
	}
	env := map[string]any{
		"workload": sp.name, "commit": commit, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"seed": seed, "clients": nClients, "trace_ops": ops,
		"drives": sp.drives, "replicas": sp.replicas, "hdd": sp.hdd, "ec": sp.ec,
		"records": sp.records, "record_bytes": sp.valueSize, "object_bytes": sp.sizes, "object_weights": sp.sizeWeights,
		"object_cache_bytes": objectCache, "key_cache_bytes": 600 * kib,
		"flush_policy": "group commit on; single puts write-through",
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(w, string(b))
}

// quantile is the nearest-rank q-quantile of the samples.
func quantile(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q*float64(len(c))+0.999999) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
