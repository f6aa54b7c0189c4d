package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// policyDistractors mirrors the policy figure in internal/bench: one
// clause per foreign principal ahead of the open clause, so an
// unindexed evaluator walks all 25 and every clause reads the version.
const policyDistractors = 24

// policySource is the 25-principal versioned read policy of the
// policy fast-path figure (internal/bench/policy.go).
func policySource() string {
	src := "read :- "
	for i := 0; i < policyDistractors; i++ {
		src += fmt.Sprintf("sessionKeyIs(k'%02x00') and currVersion(this, V) and ge(V, 0) or ", i)
	}
	src += "sessionKeyIs(U) and currVersion(this, V) and ge(V, 0)\n"
	src += "update :- sessionKeyIs(U)\n"
	return src
}

// streamObj is one stream read-set object and the digest of the bytes
// written to it.
type streamObj struct {
	key  string
	size int
	sum  [32]byte
}

// deployment is one booted, loaded and warmed workload.
type deployment struct {
	sp      spec
	tb      *testbed.Cluster
	clients []*client.Client

	// pool is seed-derived payload material; payloads are slices of it.
	pool []byte

	// kv: keys in ascending order (record i is keys[i]); acked[i] is
	// the highest acknowledged version of record i, and locks[i]
	// serializes its writers so explicit next versions never race.
	keys  []string
	acked []atomic.Int64
	locks []sync.Mutex

	// stream: the read set and each client's live fresh objects.
	readSet  []streamObj
	readKeys []string
	live     [][]streamObj
	nextSeq  []int
	bufs     []*bytes.Buffer
}

// newDeployment boots the workload's testbed, loads it and warms it
// up through every client.
func newDeployment(sp spec, seed int64, nClients int) (*deployment, error) {
	tb, err := testbed.Start(testbed.Options{
		Drives:           sp.drives,
		Replicas:         sp.replicas,
		Media:            sp.media(),
		Enclave:          true,
		EC:               sp.ec,
		ObjectCacheBytes: sp.objectCache,
		// The daemon's defaults: 1-in-16 head sampling of requests
		// without a caller trace id. Slow-op dumps stay off; they
		// would print span trees to stderr mid-measurement.
		TraceSample:     16,
		SlowOpThreshold: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	d := &deployment{sp: sp, tb: tb}
	for i := 0; i < nClients; i++ {
		cl, _, err := tb.NewClient(fmt.Sprintf("perfbench-%d", i))
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	if err := d.load(seed); err != nil {
		d.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := d.warmup(seed); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func (d *deployment) close() { d.tb.Close() }

// load writes the initial data through the controller session API
// with bounded concurrency; loading is set-up, not measured traffic.
func (d *deployment) load(seed int64) error {
	sp := d.sp
	rnd := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	sess := d.tb.Controller.Session("perfbench-loader")
	var policyID string
	if sp.policy {
		var err error
		if policyID, err = sess.PutPolicy(ctx, policySource()); err != nil {
			return err
		}
	}
	if sp.isStream() {
		d.pool = make([]byte, slices.Max(sp.sizes)+64*kib)
		rnd.Read(d.pool)
		d.live = make([][]streamObj, len(d.clients))
		d.nextSeq = make([]int, len(d.clients))
		for range d.clients {
			d.bufs = append(d.bufs, new(bytes.Buffer))
		}
		for i := 0; i < sp.records; i++ {
			key := readSetKey(i)
			size := sp.readSetSize(i)
			body := d.streamPayload(key, size)
			d.readSet = append(d.readSet, streamObj{key: key, size: size, sum: sha256.Sum256(body)})
			d.readKeys = append(d.readKeys, key)
		}
		return parallel(len(d.readSet), 4, func(i int) error {
			o := d.readSet[i]
			res := sess.PutStream(ctx, o.key, bytes.NewReader(d.streamPayload(o.key, o.size)), core.PutOptions{})
			if res.Err != nil {
				return fmt.Errorf("put %s: %v", o.key, res.Err)
			}
			return nil
		})
	}

	d.pool = make([]byte, mib+sp.valueSize)
	rnd.Read(d.pool)
	d.keys = make([]string, sp.records)
	for i := range d.keys {
		d.keys[i] = ycsb.Key(i)
	}
	if !sort.StringsAreSorted(d.keys) {
		return fmt.Errorf("record keys do not sort by index")
	}
	d.acked = make([]atomic.Int64, sp.records)
	d.locks = make([]sync.Mutex, sp.records)
	return parallel(sp.records, 128, func(i int) error {
		// A copy: in-process, the controller's object cache would
		// otherwise alias the pool the benchmark verifies against.
		v, err := sess.Put(ctx, d.keys[i], bytes.Clone(d.kvPayload(i, 0)),
			core.PutOptions{PolicyID: policyID, Version: 0, HasVersion: true})
		if err != nil {
			return fmt.Errorf("put %s: %w", d.keys[i], err)
		}
		if v != 0 {
			return fmt.Errorf("put %s: created at version %d", d.keys[i], v)
		}
		return nil
	})
}

// warmup replays a verified read-only trace on every client so TLS
// sessions, connection pools, caches and the hedge estimators are
// filled before the clock starts.
func (d *deployment) warmup(seed int64) error {
	sp := d.sp
	sp.getPct, sp.putPct = 100, 0
	trace, err := genTrace(sp, seed+1, sp.warmOps*len(d.clients), len(d.clients))
	if err != nil {
		return err
	}
	if st := d.replay(trace, nil); st.failed > 0 {
		return st.firstErr
	}
	// One scan per client opens the listing path too.
	for c := range d.clients {
		if _, _, err := d.exec(context.Background(), c, op{kind: opScan, n: 1}); err != nil {
			return err
		}
	}
	return nil
}

// kvPayload is the 1 KB value of record i at version v: a slice of the
// seed pool at an offset hashed from (i, v), so every GET can be
// checked against the version it returns.
func (d *deployment) kvPayload(i int, v int64) []byte {
	h := mix64(uint64(i)<<32 ^ uint64(v))
	off := int(h % uint64(len(d.pool)-d.sp.valueSize))
	return d.pool[off : off+d.sp.valueSize]
}

// streamPayload is the content written to a stream key.
func (d *deployment) streamPayload(key string, size int) []byte {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	off := int(mix64(h) % uint64(len(d.pool)-size))
	return d.pool[off : off+size]
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// parallel runs fn(0..n-1) on at most width goroutines and returns
// the first error.
func parallel(n, width int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first error
		mu    sync.Mutex
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// retire deletes every client's fresh stream objects, so that only
// the read set stays live, and returns how many deletes it attempted
// and how many failed.
func (d *deployment) retire() (attempted, failed int64) {
	for c, l := range d.live {
		for _, o := range l {
			attempted++
			if err := opErr(d.clients[c].DeleteOp(context.Background(), o.key, false)); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: retire %s: %v\n", o.key, err)
			}
		}
		d.live[c] = nil
	}
	return attempted, failed
}

// storedBytes is the raw bytes held by every drive.
func (d *deployment) storedBytes() int64 {
	var n int64
	for _, dr := range d.tb.Drives {
		n += dr.SizeBytes()
	}
	return n
}

// liveBytes is the logical size of the latest versions of every live
// object.
func (d *deployment) liveBytes() int64 {
	if !d.sp.isStream() {
		return int64(d.sp.records) * int64(d.sp.valueSize)
	}
	var n int64
	for _, o := range d.readSet {
		n += int64(o.size)
	}
	for _, l := range d.live {
		for _, o := range l {
			n += int64(o.size)
		}
	}
	return n
}

// counters is a snapshot of the public counters the per-layer metrics
// difference, by name.
type counters map[string]float64

func (d *deployment) snapshot() counters {
	ctl := d.tb.Controller
	st := ctl.Stats().Snapshot()
	cs := ctl.CacheStats()
	c := counters{
		"residual_hits":   float64(st.ResidualHits),
		"policy_checks":   float64(st.PolicyChecks),
		"read_hedges":     float64(st.ReadHedges),
		"coalesced_reads": float64(st.CoalescedReads),
		"ec_decodes":      float64(st.ECDecodes),
		"ec_parity_bytes": float64(st.ECParityBytes),
		"spun_ns":         float64(ctl.Cost().SpunNanos()),
		"syscalls":        float64(ctl.Cost().Syscalls()),
		"epc_faults":      float64(ctl.EPC().Faults()),
		"cpu_us":          float64(cpuTime().Microseconds()),
	}
	for _, name := range []string{"object", "meta"} {
		c[name+"_hits"] = float64(cs[name][0])
		c[name+"_misses"] = float64(cs[name][1])
		c[name+"_evictions"] = float64(cs[name][2])
	}
	for _, dr := range d.tb.Drives {
		s := dr.Stats()
		c["drive_gets"] += float64(s.Gets.Load())
		c["batches"] += float64(s.Batches.Load())
		c["batch_ops"] += float64(s.BatchOps.Load())
		c["flushes"] += float64(s.Flushes.Load())
		c["drive_requests"] += float64(s.Gets.Load() + s.Puts.Load() + s.Deletes.Load() + s.Ranges.Load() +
			s.Batches.Load() + s.Flushes.Load() + s.P2PPushes.Load())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"], c["gc_pause_ns"] = float64(ms.Mallocs), float64(ms.PauseTotalNs)
	return c
}

// addDelta adds the change from a to b to every counter of c.
func (c counters) addDelta(a, b counters) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
