package main

import (
	"fmt"
	"io"
	"runtime"
)

// ecMinBytes is the controller's default EC threshold: streamed
// objects of at least this size are stored 4+2 erasure-coded.
const ecMinBytes = 4 * mib

// traceSlices is how many parts runTraced cuts the trace into; it replays
// them in order, alternating untraced and traced, so both halves see
// the same mix on a deployment in the same state.
const traceSlices = 8

// runTraced replays the trace once, alternating untraced and traced
// slices. The untraced slices give the public counter deltas and the
// tracing-overhead baseline. In the traced slices every client call
// runs under the benchmark's own root span, and the controller's span
// tree of each call is folded into the per-layer split.
func runTraced(d *deployment, trace [][]op, report io.Writer) (*result, error) {
	base, traced := &opStats{}, &opStats{}
	delta := counters{}
	lay := &layers{}
	for s := 0; s < traceSlices; s++ {
		seg := segment(trace, s, traceSlices)
		if s%2 == 0 {
			c0 := d.snapshot()
			base.add(d.replay(seg, nil))
			delta.addDelta(c0, d.snapshot())
			continue
		}
		traced.add(d.replay(seg, lay))
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for i, name := range layerOpNames {
		a := &lay.ops[i]
		n := float64(a.n)
		set("client."+name+"_self_us", ratio(a.clientSelf, n), "us")
		set("core."+name+"_self_us", ratio(a.coreSelf, n), "us")
		set("policy."+name+"_eval_us", ratio(a.policy, n), "us")
		set("kclient."+name+"_wire_us", ratio(a.wire, n), "us")
		set("kclient."+name+"_calls", ratio(a.calls, n), "count")
		set("kinetic."+name+"_service_us", ratio(a.service, n), "us")
	}
	put := &lay.ops[lPut]
	set("core.put_replicate_us", ratio(put.replicate, float64(put.n)), "us")
	set("core.put_gcommit_wait_us", ratio(put.gcommit, float64(put.n)), "us")
	sp, gp := &lay.ops[lStreamPut], &lay.ops[lStreamGet]
	set("core.stream_put_repl_mb_s", ratio(float64(sp.replBytes), sp.replUs), "MB/s")
	set("core.stream_put_ec_mb_s", ratio(float64(sp.ecBytes), sp.ecUs), "MB/s")
	set("core.stream_get_repl_mb_s", ratio(float64(gp.replBytes), gp.replUs), "MB/s")
	set("core.stream_get_ec_mb_s", ratio(float64(gp.ecBytes), gp.ecUs), "MB/s")

	// Counter deltas over the untraced replay, per trace operation or
	// per operation of the named kind.
	ops := float64(base.attempted)
	gets := float64(len(base.lat[opGet]))
	puts := float64(len(base.lat[opPut]))
	per := func(name string, n float64) float64 { return ratio(delta[name], n) }
	set("kinetic.ops_per_batch", per("batch_ops", delta["batches"]), "count")
	set("kinetic.flushes_per_put", per("flushes", puts), "count")
	set("kinetic.requests_per_op", per("drive_requests", ops), "count")
	set("core.residual_hit_ratio", per("residual_hits", delta["policy_checks"]), "ratio")
	for _, c := range []string{"object", "meta"} {
		set("cache."+c+"_hit_ratio", per(c+"_hits", delta[c+"_hits"]+delta[c+"_misses"]), "ratio")
	}
	set("cache.object_evictions_per_op", per("object_evictions", ops), "count")
	set("core.read_hedges_per_get", per("read_hedges", gets), "count")
	set("core.coalesced_reads_per_get", per("coalesced_reads", gets), "count")
	set("kinetic.gets_per_object_miss", per("drive_gets", delta["object_misses"]), "count")
	set("enclave.spin_us_per_op", per("spun_ns", ops)/1e3, "us")
	set("enclave.syscalls_per_op", per("syscalls", ops), "count")
	set("enclave.epc_faults_per_op", per("epc_faults", ops), "count")
	streamGets := 0.0
	if d.sp.isStream() {
		streamGets = gets
	}
	set("ec.decodes_per_stream_get", per("ec_decodes", streamGets), "count")
	set("ec.parity_bytes_per_byte", per("ec_parity_bytes", float64(base.ecPutBytes)), "ratio")
	set("process.cpu_us_per_op", per("cpu_us", ops), "us")
	set("process.allocs_per_op", per("mallocs", ops), "count")
	set("process.gc_pause_ms", delta["gc_pause_ns"]/1e6, "ms")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("process.heap_mb", float64(ms.HeapAlloc)/mib, "MB")
	baseRate := float64(base.completed) / base.elapsed.Seconds()
	tracedRate := float64(traced.completed) / traced.elapsed.Seconds()
	set("bench.trace_overhead_pct", (ratio(baseRate, tracedRate)-1)*100, "%")
	set("bench.traces_missing", float64(lay.missing), "count")

	// Probes: public functions on the workloads' policy and stripe.
	evalNs, err := probePolicyEvalNs()
	if err != nil {
		return nil, err
	}
	set("policy.eval_ns", evalNs, "ns")
	p, err := newECProbe(1)
	if err != nil {
		return nil, err
	}
	enc, err := p.encodeMBs()
	if err != nil {
		return nil, err
	}
	rec, err := p.reconstructMBs()
	if err != nil {
		return nil, err
	}
	set("ec.encode_mb_s", enc, "MB/s")
	set("ec.reconstruct_mb_s", rec, "MB/s")

	fmt.Fprintf(report, "traced calls: get=%d put=%d scan=%d stream_put=%d stream_get=%d missing=%d\n",
		lay.ops[lGet].n, lay.ops[lPut].n, lay.ops[lScan].n, lay.ops[lStreamPut].n, lay.ops[lStreamGet].n, lay.missing)
	failed := base.failed + traced.failed
	return &result{
		Correct: failed == 0, Attempted: base.attempted + traced.attempted, Failed: failed, Metrics: m,
	}, nil
}
