package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// hedgeReplicas is the replication factor of the hedged-read figure:
// enough copies that reading all of them would visibly multiply media
// occupancy.
const hedgeReplicas = 3

// FigHedgedReads measures the cache-miss read path: the latency-aware
// hedged engine asks the fastest replica first and hedges only after
// an adaptive delay. The workload is read-only (YCSB-C) over the HDD
// model with the controller caches shrunk to nothing, so every read
// pays its drive round trips. Two scenarios: all replicas healthy,
// and one replica with 10x positioning time — the hedge must cover
// the slow replica's tail (reads keep completing at healthy-replica
// speed, hedges fire) while occupying about one replica's media per
// read.
func FigHedgedReads(s Scale) (*Table, error) {
	t := &Table{
		Name:    "Hedge",
		Title:   fmt.Sprintf("Hedged cache-miss reads (HDD model, %d replicas, read-only, %d clients)", hedgeReplicas, s.Clients),
		XLabel:  "scenario",
		Columns: []string{"Hedged gets/read", "Hedged p99 ms", "Hedges fired"},
	}
	for _, scen := range []string{"healthy", "slow-replica"} {
		m, occ, hedges, err := runHedgeReads(s, scen == "slow-replica")
		if err != nil {
			return nil, fmt.Errorf("hedge %s: %w", scen, err)
		}
		t.Rows = append(t.Rows, Row{X: scen, Values: []float64{
			occ,
			float64(m.P99) / float64(time.Millisecond),
			float64(hedges),
		}})
	}
	return t, nil
}

// runHedgeReads replays a read-only trace against a cache-hostile
// replicated HDD cluster, returning the replay metrics, the media
// occupancy (drive GETs per trace read) and the number of hedges
// fired.
func runHedgeReads(s Scale, slowReplica bool) (*Metrics, float64, uint64, error) {
	media := func(i int) kinetic.MediaModel {
		if slowReplica && i == 0 {
			return &kinetic.HDDMedia{
				Positioning:  9 * time.Millisecond, // 10x the healthy drives
				BytesPerSec:  150e6,
				WritePenalty: 100 * time.Microsecond,
				TimeScale:    1,
			}
		}
		return kinetic.NewHDDMedia(1.0)
	}
	cluster, err := testbed.Start(testbed.Options{
		Drives:   hedgeReplicas,
		Replicas: hedgeReplicas,
		Enclave:  true,
		Media:    media,
		// Cache-hostile: a 1-byte budget evicts everything on insert,
		// so every read is a miss and hits the drives.
		ObjectCacheBytes: 1,
		KeyCacheBytes:    1,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, s.Clients)
	if err != nil {
		return nil, 0, 0, err
	}
	// The load phase writes through every replica — including the slow
	// one — so keep it small; the figure measures the read path.
	records := min(s.DiskRecordCount, 300)
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload:       ycsb.WorkloadC, // read-only
		RecordCount:    records,
		OperationCount: s.DiskOpCount,
		Seed:           7,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := d.Load(keys, 1024, nil); err != nil {
		return nil, 0, 0, err
	}

	gets0 := driveGetsTotal(cluster)
	m, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 1024})
	if err != nil {
		return nil, 0, 0, err
	}
	occ := float64(driveGetsTotal(cluster)-gets0) / float64(len(ops))
	// Hedges are counted over the whole run including the load phase:
	// that is where the latency estimators are cold and hedging is
	// what covers the slow replica — by replay time the engine has
	// learned to order the degraded drive last, which is exactly the
	// point.
	hedges := cluster.Controller.Stats().Snapshot().ReadHedges
	return m, occ, hedges, nil
}

// driveGetsTotal sums the GET counters across a cluster's drives.
func driveGetsTotal(cluster *testbed.Cluster) uint64 {
	var n uint64
	for _, d := range cluster.Drives {
		n += d.Stats().Gets.Load()
	}
	return n
}

// WireStat is one wire-path micro-benchmark result.
type WireStat struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// wireBench measures the per-message sign+frame cost of the legacy
// Sign+WriteFrame pair or the pooled Encoder, without depending on
// the testing package.
func wireBench(pooled bool) WireStat {
	key := []byte("bench-secret-key")
	m := &wire.Message{Type: wire.TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1024), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	enc := wire.NewEncoder()
	run := func(iters int) (time.Duration, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			m.Seq = uint64(i)
			if pooled {
				enc.WriteFrame(io.Discard, m, key)
			} else {
				m.Sign(key)
				wire.WriteFrame(io.Discard, m)
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return el, ms1.Mallocs - ms0.Mallocs
	}
	run(1000) // warm up buffers and the allocator
	const iters = 50000
	el, allocs := run(iters)
	return WireStat{
		NsPerOp:     float64(el.Nanoseconds()) / iters,
		AllocsPerOp: float64(allocs) / iters,
	}
}

// BenchReadJSON is the machine-readable result of the hedged-read
// figure plus the wire hot-path micro-benchmarks.
type BenchReadJSON struct {
	Figure  string              `json:"figure"`
	Title   string              `json:"title"`
	XLabel  string              `json:"xLabel"`
	Columns []string            `json:"columns"`
	Rows    []BenchReadRow      `json:"rows"`
	Wire    map[string]WireStat `json:"wire"`
}

// BenchReadRow is one figure row.
type BenchReadRow struct {
	X      string    `json:"x"`
	Values []float64 `json:"values"`
}

// WriteBenchReadJSON renders the hedged-read table plus the wire-path
// micro-benchmarks as BENCH_read.json-style machine-readable output.
func WriteBenchReadJSON(path string, t *Table) error {
	out := BenchReadJSON{
		Figure:  t.Name,
		Title:   t.Title,
		XLabel:  t.XLabel,
		Columns: t.Columns,
		Wire: map[string]WireStat{
			"legacy": wireBench(false),
			"pooled": wireBench(true),
		},
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, BenchReadRow{X: r.X, Values: r.Values})
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
