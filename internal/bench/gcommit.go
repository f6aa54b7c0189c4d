package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// gcommitReplicas is the replication factor of the group-commit
// figure: one copy, so the figure isolates the write scheduler on a
// single medium. (Group commit composes with replicated writes
// through the generation scheduler.)
const gcommitReplicas = 1

// defaultGroupCommitClients is the figure's client sweep when the
// scale does not override it.
var defaultGroupCommitClients = []int{1, 8, 32, 128}

// FigGroupCommit measures the cross-client group committer: YCSB-A
// over the HDD model — where positioning time caps a drive near
// 1 kIOP/s — replayed by an increasing number of closed-loop clients.
// Concurrent clients' writes merge into shared grouped batches, one
// amortized media wait for many writers, so throughput scales with
// ops-per-media-wait once clients pile up, while the 1-client p99
// stays at single-write latency because an idle drive commits
// immediately.
func FigGroupCommit(s Scale) (*Table, error) {
	steps := s.GroupCommitClients
	if len(steps) == 0 {
		steps = defaultGroupCommitClients
	}
	t := &Table{
		Name:    "GroupCommit",
		Title:   fmt.Sprintf("Group commit under concurrency (YCSB-A, HDD model, %d drive)", gcommitReplicas),
		XLabel:  "clients",
		Columns: []string{"Group IOP/s", "Group p99 ms"},
	}
	for _, nc := range steps {
		group, err := runGroupCommitYCSB(s, nc)
		if err != nil {
			return nil, fmt.Errorf("gcommit c=%d: %w", nc, err)
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(nc), Values: []float64{
			group.KIOPS * 1000,
			float64(group.P99) / float64(time.Millisecond),
		}})
	}
	return t, nil
}

// runGroupCommitYCSB replays YCSB-A at the given concurrency.
func runGroupCommitYCSB(s Scale, clients int) (*Metrics, error) {
	cluster, err := testbed.Start(testbed.Options{
		Drives:   gcommitReplicas,
		Replicas: gcommitReplicas,
		Enclave:  true,
		Media:    func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) },
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, clients)
	if err != nil {
		return nil, err
	}
	// 8× the usual disk-figure keyspace: YCSB-A's zipfian hot key
	// takes ~14% of all updates over a few hundred records, and that
	// key's serial CAS chain — not the write scheduler under test —
	// becomes the critical path. A larger keyspace (still far below
	// the paper's 100,000 records) keeps the figure measuring media
	// scheduling rather than single-key ordering, which no scheduler
	// may reorder.
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload:       ycsb.WorkloadA,
		RecordCount:    8 * s.DiskRecordCount,
		OperationCount: s.DiskOpCount,
		Seed:           7,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Load(keys, 1024, nil); err != nil {
		return nil, err
	}
	// Warm every client's TLS session before the clock starts: the
	// REST clients dial lazily, and at 128 clients the handshake
	// crypto would otherwise be measured as write-path time.
	if err := d.Warmup(keys[0]); err != nil {
		return nil, err
	}
	// Median of three replays over the same loaded cluster: closed-loop
	// runs on a contended host swing with goroutine-scheduling luck
	// (the zipfian hot-key chain is latency-bound), and a single
	// sample can misstate the throughput.
	var runs []*Metrics
	for i := 0; i < 3; i++ {
		m, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 1024})
		if err != nil {
			return nil, err
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].KIOPS < runs[j].KIOPS })
	return runs[1], nil
}

// batchWireBench measures assembling and encoding the write path's
// drive batches: "perop" encodes one 2-op atomic batch message per
// logical write (PR 1's frame stream), "grouped" encodes the same 16
// logical writes as a single merged grouped TBatch assembled into a
// pooled sub-operation slice. Reported per logical write, so the two
// are directly comparable; the grouped row is where the op-slice and
// encoder pooling must hold allocations flat.
func batchWireBench(grouped bool) WireStat {
	key := []byte("bench-secret-key")
	enc := wire.NewEncoder()
	const writes = 16
	value := make([]byte, 1024)
	meta := make([]byte, 96)
	mkOps := func(dst []wire.BatchOp) []wire.BatchOp {
		return append(dst,
			wire.BatchOp{Op: wire.BatchPut, Key: []byte("o/k/1"), Value: value,
				NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, 1}, Force: true},
			wire.BatchOp{Op: wire.BatchPut, Key: []byte("m/k"), Value: meta,
				DBVersion: []byte{0, 0, 0, 0, 0, 0, 0, 0}, NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, 1}})
	}
	scratch := make([]wire.BatchOp, 0, 2*writes)
	sizes := make([]uint32, writes)
	for i := range sizes {
		sizes[i] = 2
	}
	m := &wire.Message{Type: wire.TBatch, User: "pesos-admin"}
	run := func(iters int) (time.Duration, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			if grouped {
				ops := scratch[:0]
				for i := 0; i < writes; i++ {
					ops = mkOps(ops)
				}
				m.Seq, m.Batch, m.GroupSizes = uint64(it), ops, sizes
				enc.WriteFrame(io.Discard, m, key)
			} else {
				for i := 0; i < writes; i++ {
					ops := mkOps(scratch[:0])
					m.Seq, m.Batch, m.GroupSizes = uint64(it*writes+i), ops, nil
					enc.WriteFrame(io.Discard, m, key)
				}
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return el, ms1.Mallocs - ms0.Mallocs
	}
	run(500) // warm buffers
	const iters = 20000
	el, allocs := run(iters)
	return WireStat{
		NsPerOp:     float64(el.Nanoseconds()) / (iters * writes),
		AllocsPerOp: float64(allocs) / (iters * writes),
	}
}

// WriteBenchWriteJSON renders the group-commit table plus the batch
// wire-path micro-benchmarks as BENCH_write.json machine-readable
// output — the write-path counterpart of BENCH_read.json.
func WriteBenchWriteJSON(path string, t *Table) error {
	out := BenchReadJSON{
		Figure:  t.Name,
		Title:   t.Title,
		XLabel:  t.XLabel,
		Columns: t.Columns,
		Wire: map[string]WireStat{
			"perop":   batchWireBench(false),
			"grouped": batchWireBench(true),
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
