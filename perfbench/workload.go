package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/kinetic"
	"repro/internal/ycsb"
)

// spec is one workload: the deployment it boots, what it loads, and
// the operation mix its trace draws from. README.md gives the reason
// for every size.
type spec struct {
	name     string
	drives   int
	replicas int
	// hdd selects the HDD media model at TimeScale 1.0 (real time);
	// false is the zero-latency simulator.
	hdd bool
	// ec enables the erasure-coded class (4+2 from 4 MiB up).
	ec bool
	// objectCache overrides the 48 MiB object cache (0 = default).
	objectCache int64
	// policy attaches the 25-principal versioned read policy to every
	// loaded record.
	policy bool

	// kv workloads: records of valueSize bytes, keys ycsb.Key(i).
	records   int
	valueSize int
	// stream workload: object sizes and their weights. The read set
	// of records objects and the puts both follow the weights.
	sizes       []int
	sizeWeights []int
	// window is how many fresh stream objects each client keeps live
	// before deleting its oldest.
	window int

	// getPct and putPct split the trace; the rest are scans of 1 to
	// maxScan records.
	getPct, putPct int
	maxScan        int

	// opsPerSec converts --seconds into the fixed trace length. It is
	// a constant, not a measurement, so a faster build replays the
	// same operations in less time instead of doing more of them.
	opsPerSec float64
	// warmOps is each client's read-only warm-up before the clock
	// starts.
	warmOps int
	// setups is how many times a trace=0 run sets the workload up;
	// setup_s is their median.
	setups int
	// segments is how many consecutive slices a trace=0 run replays;
	// each end-to-end metric is the median of its per-slice values, so
	// a burst of interference from elsewhere on the host moves one
	// slice, not the result. The stream workload keeps one slice: its
	// tail percentiles need every sample of the run.
	segments int
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// specs are the benchmark's workloads by name.
var specs = map[string]spec{
	"kv-hot": {
		name: "kv-hot", drives: 3, replicas: 3, policy: true,
		records: 20000, valueSize: kib,
		getPct: 90, putPct: 5, maxScan: 50,
		opsPerSec: 8000, warmOps: 2000, setups: 3, segments: 5,
	},
	"kv-disk": {
		name: "kv-disk", drives: 5, replicas: 3, hdd: true, policy: true,
		records: 10000, valueSize: kib, objectCache: 256 * kib,
		getPct: 49, putPct: 49, maxScan: 10,
		opsPerSec: 750, warmOps: 500, setups: 3, segments: 5,
	},
	"stream": {
		name: "stream", drives: 8, replicas: 3, ec: true,
		records: 8, sizes: []int{1 * mib, 2 * mib, 8 * mib},
		sizeWeights: []int{1, 2, 1}, window: 2,
		getPct: 45, putPct: 45, maxScan: 8,
		opsPerSec: 60, warmOps: 4, setups: 5, segments: 1,
	},
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string { return []string{"kv-hot", "kv-disk", "stream"} }

func (sp spec) media() func(int) kinetic.MediaModel {
	if !sp.hdd {
		return nil
	}
	return func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) }
}

func (sp spec) isStream() bool { return len(sp.sizes) > 0 }

// traceLen is the number of measured operations for a run of the
// given nominal length.
func (sp spec) traceLen(seconds int) int {
	return max(int(sp.opsPerSec*float64(seconds)), 20)
}

// readSetSize is the size of stream read-set object i: the objects
// cycle through sizes, each repeated by its weight.
func (sp spec) readSetSize(i int) int {
	var cycle []int
	for j, w := range sp.sizeWeights {
		for ; w > 0; w-- {
			cycle = append(cycle, sp.sizes[j])
		}
	}
	return cycle[i%len(cycle)]
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

func (k opKind) String() string { return [...]string{"get", "put", "scan"}[k] }

// op is one trace entry. For kv workloads key is a record index; for
// stream GETs and scans it indexes the read set and for stream PUTs
// it indexes sizes. n is a scan's record count.
type op struct {
	kind opKind
	key  int
	n    int
}

// genTrace builds each client's share of a seed-determined trace of
// total operations. The op kinds, stream object sizes and read-set
// objects come from shuffled decks with exact proportions in every
// segment, so every seed replays the same amount of each kind of work
// in another order;
// kv keys follow the zipfian generator. Operations are dealt
// round-robin, so every client replays the same amount of work.
func genTrace(sp spec, seed int64, total, clients int) ([][]op, error) {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	var keys []int
	if !sp.isStream() {
		// Zipfian 0.99 record popularity from the YCSB generator:
		// workload C is read-only, so each trace entry is just a key.
		_, ops, err := ycsb.Generate(ycsb.Config{
			Workload: ycsb.WorkloadC, RecordCount: sp.records,
			OperationCount: total, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		keys = make([]int, len(ops))
		for i, o := range ops {
			if keys[i], err = keyIndex(o.Key); err != nil {
				return nil, err
			}
		}
	}
	var kinds, sizes, objects []int
	for s := 0; s < sp.segments; s++ {
		n := (s+1)*total/sp.segments - s*total/sp.segments
		kinds = append(kinds, deck(rnd, n, []int{sp.getPct, sp.putPct, 100 - sp.getPct - sp.putPct})...)
		if sp.isStream() {
			sizes = append(sizes, deck(rnd, n, sp.sizeWeights)...)
			objects = append(objects, deck(rnd, n, ones(sp.records))...)
		}
	}
	out := make([][]op, clients)
	for i := 0; i < total; i++ {
		o := op{kind: opKind(kinds[i])}
		if o.kind == opScan {
			o.n = 1 + rnd.Intn(sp.maxScan)
		}
		switch {
		case !sp.isStream():
			o.key = keys[i]
		case o.kind == opPut:
			o.key = sizes[i]
		default:
			o.key = objects[i]
		}
		out[i%clients] = append(out[i%clients], o)
	}
	return out, nil
}

// deck returns n indexes into w, each appearing in proportion to its
// weight (rounded down, the remainder dealt from the front), shuffled.
func deck(rnd *rand.Rand, n int, w []int) []int {
	sum := 0
	for _, x := range w {
		sum += x
	}
	out := make([]int, 0, n)
	for i, x := range w {
		for j := 0; j < n*x/sum; j++ {
			out = append(out, i)
		}
	}
	for i := 0; len(out) < n; i++ {
		if w[i%len(w)] > 0 {
			out = append(out, i%len(w))
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// segment returns slice s of n of every client's trace.
func segment(trace [][]op, s, n int) [][]op {
	out := make([][]op, len(trace))
	for c, t := range trace {
		out[c] = t[s*len(t)/n : (s+1)*len(t)/n]
	}
	return out
}

// keyIndex inverts ycsb.Key.
func keyIndex(key string) (int, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(key, "user"))
	if err != nil || ycsb.Key(i) != key {
		return 0, fmt.Errorf("perfbench: unexpected ycsb key %q", key)
	}
	return i, nil
}

// readSetKey names stream read-set object i; keys sort by index.
func readSetKey(i int) string { return fmt.Sprintf("r/%04d", i) }

// freshKey names the seq-th stream object client c writes.
func freshKey(c, seq int) string { return fmt.Sprintf("w/%02d/%08d", c, seq) }
