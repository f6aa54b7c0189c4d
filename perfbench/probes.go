package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ec"
	"repro/internal/policy"
	"repro/internal/policy/lang"
)

// Probes time single public functions on inputs that mirror the
// workloads: the 25-principal policy and a 4+2 stripe of 1 MiB
// chunks. Each runs for about probeTime.
const probeTime = 200 * time.Millisecond

// probeObjects is a fixed ObjectSource: every object is at version 3.
type probeObjects struct{}

func (probeObjects) Info(id string) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: 3, Size: kib}, true, nil
}

func (probeObjects) InfoAt(id string, version int64) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: version, Size: kib}, true, nil
}

func (probeObjects) Content(string, int64) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("the probe policy has no objSays")
}

// probePolicyEvalNs times policy.PartialEval(...).Eval of the
// workloads' read policy for a principal that only the last clause
// admits, in nanoseconds per evaluation.
func probePolicyEvalNs() (float64, error) {
	const sessionKey = "feed"
	prog, err := policy.CompileSource(policySource())
	if err != nil {
		return 0, err
	}
	res := policy.PartialEval(prog, lang.PermRead, sessionKey)
	req := &policy.Request{Op: lang.PermRead, ObjectID: "user000000000001", SessionKey: sessionKey, Now: time.Unix(1, 0)}
	var objs probeObjects
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for i := 0; i < 256; i++ {
			d, err := res.Eval(req, objs)
			if err != nil || !d.Allowed {
				return 0, fmt.Errorf("probe policy denied: %+v %v", d, err)
			}
		}
		n += 256
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// ecProbe is one 4+2 stripe of 1 MiB shards, the layout of the stream
// workload's erasure-coded objects.
type ecProbe struct {
	code   *ec.Code
	data   [][]byte
	parity [][]byte
}

func newECProbe(seed int64) (*ecProbe, error) {
	code, err := ec.New(4, 2)
	if err != nil {
		return nil, err
	}
	p := &ecProbe{code: code}
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		b := make([]byte, mib)
		rnd.Read(b)
		p.data = append(p.data, b)
	}
	for i := 0; i < 2; i++ {
		p.parity = append(p.parity, make([]byte, mib))
	}
	return p, nil
}

// encodeMBs times ec.Code.Encode, in stripe data MB per second.
func (p *ecProbe) encodeMBs() (float64, error) {
	var busy time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < probeTime; n++ {
		for _, b := range p.parity {
			clear(b)
		}
		t0 := time.Now()
		if err := p.code.Encode(p.data, p.parity); err != nil {
			return 0, err
		}
		busy += time.Since(t0)
	}
	return float64(n*4*mib) / 1e6 / busy.Seconds(), nil
}

// reconstructMBs times ec.Code.ReconstructData with both parity
// shards standing in for two lost data shards, in stripe data MB per
// second, and checks the recovered bytes.
func (p *ecProbe) reconstructMBs() (float64, error) {
	for _, b := range p.parity {
		clear(b)
	}
	if err := p.code.Encode(p.data, p.parity); err != nil {
		return 0, err
	}
	var busy time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < probeTime; n++ {
		shards := [][]byte{nil, nil, p.data[2], p.data[3], p.parity[0], p.parity[1]}
		t0 := time.Now()
		if err := p.code.ReconstructData(shards); err != nil {
			return 0, err
		}
		busy += time.Since(t0)
		if n == 0 && (!bytes.Equal(shards[0], p.data[0]) || !bytes.Equal(shards[1], p.data[1])) {
			return 0, fmt.Errorf("ec probe reconstructed other bytes")
		}
	}
	return float64(n*4*mib) / 1e6 / busy.Seconds(), nil
}
