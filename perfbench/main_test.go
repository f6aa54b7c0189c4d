package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"
)

// tiny shrinks a workload so the whole suite runs in seconds. The
// stream sizes stay, so both storage classes are still exercised.
func tiny(sp spec) spec {
	if sp.isStream() {
		sp.records, sp.opsPerSec = 4, 30
	} else {
		sp.records, sp.opsPerSec = 400, 200
	}
	sp.warmOps = 2
	sp.setups = 2
	return sp
}

type catalog struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitCatalog runs every workload, untraced and traced,
// and checks that no operation fails and that every metric
// BENCHMARK.json names is emitted with its unit and nothing else.
func TestWorkloadsEmitCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cat catalog
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := cat.EndToEnd
			if traced {
				want = cat.PerLayer
			}
			res, err := run(tiny(specs[name]), 7, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalog has %d", name, traced, len(res.Metrics), len(want))
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", name, traced, err)
			}
		}
	}
}

// TestVerificationReportsCorruption corrupts one expected value per
// workload kind and checks that the next read of it fails
// verification.
func TestVerificationReportsCorruption(t *testing.T) {
	ctx := context.Background()

	d, err := newDeployment(tiny(specs["kv-hot"]), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if _, _, err := d.exec(ctx, 0, op{kind: opGet, key: 5}); err != nil {
		t.Fatalf("clean get: %v", err)
	}
	d.kvPayload(5, 0)[0] ^= 0xff // the expected bytes of record 5 at version 0
	if _, _, err := d.exec(ctx, 0, op{kind: opGet, key: 5}); !errors.Is(err, errMismatch) {
		t.Errorf("get after corrupting the expected value: %v, want a verification failure", err)
	}

	s, err := newDeployment(tiny(specs["stream"]), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.readSet[1].sum[0] ^= 1
	if _, _, err := s.exec(ctx, 0, op{kind: opGet, key: 1}); !errors.Is(err, errMismatch) {
		t.Errorf("stream get after corrupting the expected digest: %v, want a verification failure", err)
	}
}

func TestCheckPage(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	for _, tc := range []struct {
		got         []string
		from, limit int
		last, ok    bool
	}{
		{[]string{"b", "c"}, 1, 2, false, true},
		{[]string{"c", "d"}, 2, 5, true, true},
		{[]string{"b"}, 1, 3, false, true}, // short page with a resume token
		{[]string{"b"}, 1, 3, true, false}, // exhausted listing missing c and d
		{[]string{"c", "b"}, 1, 2, false, false},
		{[]string{"b", "b"}, 1, 2, false, false},
		{[]string{"a"}, 1, 2, false, false}, // outside the range
		{[]string{"b", "c", "d"}, 1, 2, false, false},
		{nil, 1, 2, false, false},
	} {
		err := checkPage(tc.got, keys, tc.from, tc.limit, tc.last)
		if (err == nil) != tc.ok {
			t.Errorf("checkPage(%v from %d limit %d last %v) = %v, want ok=%v", tc.got, tc.from, tc.limit, tc.last, err, tc.ok)
		}
	}
}
