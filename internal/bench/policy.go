package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/policy"
	"repro/internal/policy/lang"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// policyDistractors is the number of foreign-principal clauses in the
// policy-fast-path figure's ACL-style policy. Real multi-tenant ACLs
// carry one clause per principal; a request from the last principal
// makes the plain interpreter walk every clause, which is exactly the
// work indexing and session-bind partial evaluation remove.
const policyDistractors = 24

// policyBenchSource builds the figure's read policy: one versioned
// clause per foreign principal, then an open versioned clause any
// authenticated session satisfies. Every clause needs the drive
// (currVersion), so no check is decided by the session alone and each
// one runs the evaluator the figure measures.
func policyBenchSource() string {
	src := "read :- "
	for i := 0; i < policyDistractors; i++ {
		src += fmt.Sprintf("sessionKeyIs(k'%02x00') and currVersion(this, V) and ge(V, 0) or ", i)
	}
	src += "sessionKeyIs(U) and currVersion(this, V) and ge(V, 0)\n"
	src += "update :- sessionKeyIs(U)\n"
	return src
}

// benchObjects is a fixed in-memory ObjectSource for the per-op micro
// benchmark: one object at version 3.
type benchObjects struct{}

func (benchObjects) Info(id string) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: 3, Size: 1024}, true, nil
}

func (benchObjects) InfoAt(id string, version int64) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: version, Size: 1024}, true, nil
}

func (benchObjects) Content(string, int64) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("bench policy has no objSays")
}

// PolicyStat is one policy-evaluator micro-benchmark result.
type PolicyStat struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// policyMicroBench measures one evaluation mode of the figure's policy
// for the open-clause principal, without depending on the testing
// package. mode is "interpreter", "indexed" or "partial".
func policyMicroBench(mode string) PolicyStat {
	prog, err := policy.CompileSource(policyBenchSource())
	if err != nil {
		panic(err)
	}
	req := &policy.Request{
		Op: lang.PermRead, ObjectID: "bench/object", SessionKey: "feed",
		Now: time.Unix(1, 0),
	}
	objs := benchObjects{}
	var res *policy.Residual
	if mode == "partial" {
		res = policy.PartialEval(prog, lang.PermRead, req.SessionKey)
	}
	step := func() {
		var d policy.Decision
		var err error
		switch mode {
		case "interpreter":
			d, err = policy.Eval(prog, req, objs)
		case "indexed":
			d, err = policy.EvalIndexed(prog, req, objs)
		default:
			d, err = res.Eval(req, objs)
		}
		if err != nil || !d.Allowed {
			panic(fmt.Sprintf("policy bench %s: %+v %v", mode, d, err))
		}
	}
	run := func(iters int) (time.Duration, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			step()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return el, ms1.Mallocs - ms0.Mallocs
	}
	run(2000) // warm pools, the index and the allocator
	const iters = 100000
	el, allocs := run(iters)
	return PolicyStat{
		NsPerOp:     float64(el.Nanoseconds()) / iters,
		AllocsPerOp: float64(allocs) / iters,
	}
}

// FigPolicy measures the policy engine: per-operation micro-benchmarks
// of the clause interpreter, rule indexing and session-bind partial
// evaluation (the engine the controller runs), plus a policy-filtered
// YCSB-E scan workload on the controller, where every stored object
// carries the multi-principal policy and scan pages reuse residuals.
func FigPolicy(s Scale) (*Table, error) {
	t := &Table{
		Name: "Policy",
		Title: fmt.Sprintf("Policy engine (YCSB-E scans, %d-principal policy, %d clients)",
			policyDistractors+1, s.Clients),
		XLabel: "engine",
		Columns: []string{"Interpreter ns/op", "Indexed ns/op", "Partial ns/op",
			"Scan kIOP/s", "Scan mean ms", "Evals", "Residual hits", "Skipped clauses"},
	}
	var micro []float64
	for _, mode := range []string{"interpreter", "indexed", "partial"} {
		micro = append(micro, policyMicroBench(mode).NsPerOp)
	}
	m, st, err := runPolicyScanE(s)
	if err != nil {
		return nil, fmt.Errorf("policy scan: %w", err)
	}
	t.Rows = append(t.Rows, Row{X: "partial", Values: append(micro,
		m.KIOPS,
		float64(m.Mean)/float64(time.Millisecond),
		float64(st.PolicyEvals),
		float64(st.ResidualHits),
		float64(st.IndexSkippedClauses),
	)})
	return t, nil
}

// policyScanStats is the controller-side counter delta of one run.
type policyScanStats struct {
	PolicyEvals         uint64
	ResidualHits        uint64
	IndexSkippedClauses uint64
}

// runPolicyScanE loads a keyspace whose every object carries the
// multi-principal policy and replays a workload E trace (95 % short
// scans): each scanned key pays a PermRead policy check in the scan
// filter loop.
func runPolicyScanE(s Scale) (*Metrics, *policyScanStats, error) {
	cluster, err := testbed.Start(testbed.Options{Drives: 2, Replicas: 2, Enclave: true})
	if err != nil {
		return nil, nil, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, s.Clients)
	if err != nil {
		return nil, nil, err
	}
	pid, err := cluster.Controller.PutPolicy(ctxBG(), policyBenchSource())
	if err != nil {
		return nil, nil, err
	}
	ops := s.OpCount / 10
	if ops < 500 {
		ops = 500
	}
	keys, trace, err := ycsb.Generate(ycsb.Config{
		Workload:       ycsb.WorkloadE,
		RecordCount:    s.RecordCount,
		OperationCount: ops,
		Seed:           7,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := d.Load(keys, 1024, func(int) string { return pid }); err != nil {
		return nil, nil, err
	}
	st0 := cluster.Controller.Stats().Snapshot()
	m, err := d.Replay(ReplayConfig{Ops: trace, ValueSize: 1024})
	if err != nil {
		return nil, nil, err
	}
	st1 := cluster.Controller.Stats().Snapshot()
	return m, &policyScanStats{
		PolicyEvals:         st1.PolicyEvals - st0.PolicyEvals,
		ResidualHits:        st1.ResidualHits - st0.ResidualHits,
		IndexSkippedClauses: st1.IndexSkippedClauses - st0.IndexSkippedClauses,
	}, nil
}

// BenchPolicyJSON is the machine-readable result of the policy figure:
// the figure rows plus the per-op evaluator micro-benchmarks and the
// headline interpreter-to-partial speedup.
type BenchPolicyJSON struct {
	Figure  string                `json:"figure"`
	Title   string                `json:"title"`
	XLabel  string                `json:"xLabel"`
	Columns []string              `json:"columns"`
	Rows    []BenchReadRow        `json:"rows"`
	Micro   map[string]PolicyStat `json:"micro"`
	// Speedup is interpreter ns/op over partial-eval ns/op for one
	// policy check of the figure's non-static policy.
	Speedup float64 `json:"speedup"`
}

// WriteBenchPolicyJSON renders the policy table plus the evaluator
// micro-benchmarks as BENCH_policy.json machine-readable output.
func WriteBenchPolicyJSON(path string, t *Table) error {
	micro := map[string]PolicyStat{
		"interpreter": policyMicroBench("interpreter"),
		"indexed":     policyMicroBench("indexed"),
		"partial":     policyMicroBench("partial"),
	}
	out := BenchPolicyJSON{
		Figure:  t.Name,
		Title:   t.Title,
		XLabel:  t.XLabel,
		Columns: t.Columns,
		Micro:   micro,
	}
	if p := micro["partial"].NsPerOp; p > 0 {
		out.Speedup = micro["interpreter"].NsPerOp / p
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
