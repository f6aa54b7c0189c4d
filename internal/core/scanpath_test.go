package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// driveCounts snapshots every drive's GET and range-read counters.
func driveCounts(h *harness) (gets, ranges []uint64) {
	for _, d := range h.drives {
		gets = append(gets, d.Stats().Gets.Load())
		ranges = append(ranges, d.Stats().Ranges.Load())
	}
	return gets, ranges
}

// TestScanPageOneRangeReadPerDrive: with every cache dropped, a page
// of 50 listed keys costs exactly one range read per drive and no
// per-key GET — the range read carries the metadata.
func TestScanPageOneRangeReadPerDrive(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("alice")
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("p/%03d", i), []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	h.ctl.DropCaches()
	gets0, ranges0 := driveCounts(h)
	page, err := s.Scan(ctx, ScanOptions{Prefix: "p/", Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 50 || page.NextToken == "" {
		t.Fatalf("page holds %d entries (token %q), want 50 and a token", len(page.Entries), page.NextToken)
	}
	gets1, ranges1 := driveCounts(h)
	for di := range h.drives {
		if n := ranges1[di] - ranges0[di]; n != 1 {
			t.Errorf("drive %d served %d range reads, want 1", di, n)
		}
		if n := gets1[di] - gets0[di]; n != 0 {
			t.Errorf("drive %d served %d GETs, want 0", di, n)
		}
	}
	if n := h.ctl.metaCache.Len(); n != 0 {
		t.Errorf("scan published %d range-read metadata entries into the key cache", n)
	}
}

// TestScanListsNewestReplicaVersion: a replica whose metadata record
// lags behind still lets the listing report the newest version any
// placement replica holds.
func TestScanListsNewestReplicaVersion(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("alice")
	ctx := context.Background()
	for v := 0; v < 3; v++ {
		if _, err := s.Put(ctx, "lag", []byte(fmt.Sprintf("v%d", v)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	stale := &store.Meta{Key: "lag", Version: 1, Size: 2, ContentHash: store.HashContent([]byte("v1"))}
	for _, di := range h.ctl.placement("lag")[:1] {
		if err := h.ctl.drives[di].pick().Put(ctx, store.MetaKey("lag"), stale.Marshal(), nil, encodeVer(1), true); err != nil {
			t.Fatal(err)
		}
	}
	h.ctl.DropCaches()
	page, err := s.Scan(ctx, ScanOptions{Prefix: "lag"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Version != 2 {
		t.Fatalf("listing %+v, want lag at version 2", page.Entries)
	}
}

// TestScanMalformedReplicaFallsBackToLoad: when no value a range read
// returned for a key decodes, the listing loads the key's metadata
// instead of dropping it. Replica A holds a malformed record; replica
// B's range read fails (the scan tolerates one failed drive of two
// replicas) but its GET then serves the fallback load.
func TestScanMalformedReplicaFallsBackToLoad(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("alice")
	ctx := context.Background()
	for _, k := range []string{"m/bad", "m/good"} {
		if _, err := s.Put(ctx, k, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := h.ctl.placement("m/bad")[0], h.ctl.placement("m/bad")[1]
	if err := h.ctl.drives[a].pick().Put(ctx, store.MetaKey("m/bad"), []byte("not a metadata record"), nil, encodeVer(0), true); err != nil {
		t.Fatal(err)
	}
	h.ctl.DropCaches()
	// Drive b answers its next request (the range read) with an error
	// and the one after (the fallback GET) normally. The first request
	// under the new faults is spent here so the range read is the 2nd.
	h.drives[b].SetFaults(kinetic.Faults{ErrorEveryN: 2})
	h.drives[b].Handle(&wire.Message{Type: wire.TNoop})
	gets0, _ := driveCounts(h)
	page, err := s.Scan(ctx, ScanOptions{Prefix: "m/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || string(page.Entries[0].Key) != "m/bad" || page.Entries[0].Version != 0 {
		t.Fatalf("listing %+v, want m/bad and m/good", page.Entries)
	}
	if st := h.drives[b].FaultStats(); st.Errors != 1 {
		t.Fatalf("drive b injected %d errors, want 1 (the range read)", st.Errors)
	}
	gets1, _ := driveCounts(h)
	if gets1[a]+gets1[b] == gets0[a]+gets0[b] {
		t.Error("malformed replica value did not fall back to a metadata load")
	}
}

// TestPolicyThisReadsCheckedMeta: a policy reading the checked
// object's own metadata (currVersion(this, V)) is answered from the
// metadata the check was handed, without loading it again.
func TestPolicyThisReadsCheckedMeta(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	s := h.ctl.Session("a11ce")
	pid, err := h.ctl.PutPolicy(ctx, "read :- currVersion(this, V) and ge(V, 2)\nupdate :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if _, err := s.Put(ctx, "k", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := h.ctl.loadMeta(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	h.ctl.metaCache.Clear() // any metadata load would now reach the drive
	gets := h.drives[0].Stats().Gets.Load()
	if err := h.ctl.checkPolicy(ctx, lang.PermRead, "a11ce", "k", meta, nil, nil); err != nil {
		t.Fatalf("read at version 2: %v", err)
	}
	if n := h.drives[0].Stats().Gets.Load() - gets; n != 0 {
		t.Fatalf("policy check made %d drive GETs, want 0", n)
	}
	// The decision follows the handed metadata, not the stored one.
	old := *meta
	old.Version = 1
	if err := h.ctl.checkPolicy(ctx, lang.PermRead, "a11ce", "k", &old, nil, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("read against version 1 metadata: %v, want a denial", err)
	}
}
