package kinetic

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
)

// seedRecord puts one record under the factory account.
func seedRecord(t *testing.T, d *Drive, key, val string) {
	t.Helper()
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte(key), Value: []byte(val), NewVersion: []byte("1"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("seed put: %v %s", resp.Status, resp.StatusMsg)
	}
}

// TestFaultsErrorEveryNDeterministic drives the same request sequence
// through two independently-built drives with the same fault config
// and requires the identical failure positions: rate faults are
// counter-driven, never random.
func TestFaultsErrorEveryNDeterministic(t *testing.T) {
	run := func() []int {
		d := NewDrive(Config{Name: "det"})
		seedRecord(t, d, "k", "v")
		d.SetFaults(Faults{ErrorEveryN: 3})
		var failed []int
		for i := 0; i < 30; i++ {
			resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
			if resp.Status == wire.StatusInternalError {
				failed = append(failed, i)
			} else if resp.Status != wire.StatusOK {
				t.Fatalf("req %d: unexpected status %v", i, resp.Status)
			}
		}
		if got := d.FaultStats().Errors; got != uint64(len(failed)) {
			t.Fatalf("stats count %d, observed %d failures", got, len(failed))
		}
		return failed
	}
	a, b := run(), run()
	if len(a) != 10 {
		t.Fatalf("ErrorEveryN=3 over 30 requests: got %d failures, want 10 (%v)", len(a), a)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("two identical runs diverged: %v vs %v", a, b)
	}
	// Counters reset with the configuration: reinstalling the same
	// faults restarts the schedule from position zero.
	d := NewDrive(Config{Name: "det"})
	seedRecord(t, d, "k", "v")
	d.SetFaults(Faults{ErrorEveryN: 3})
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp.Status != wire.StatusOK {
		t.Fatalf("first request after install should pass, got %v", resp.Status)
	}
}

// TestFaultsBlackholeAndClear verifies the crash-stop fault: Handle
// returns nil (caller drops the connection), the drop is counted, and
// both ClearFaults and a zero Faults document restore the drive.
func TestFaultsBlackholeAndClear(t *testing.T) {
	d := NewDrive(Config{Name: "bh"})
	seedRecord(t, d, "k", "v")

	d.SetFaults(Faults{Blackhole: true})
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp != nil {
		t.Fatalf("blackholed drive answered: %+v", resp)
	}
	if st := d.FaultStats(); st.Dropped != 1 {
		t.Fatalf("dropped counter = %d, want 1", st.Dropped)
	}
	d.ClearFaults()
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("drive did not recover after ClearFaults: %+v", resp)
	}

	// SetFaults with the zero value is equivalent to ClearFaults: the
	// steady-state path must stay a single atomic load.
	d.SetFaults(Faults{Blackhole: true})
	d.SetFaults(Faults{})
	if got := d.Faults(); got.active() {
		t.Fatalf("zero Faults did not clear injection: %+v", got)
	}
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("drive did not recover after zero SetFaults: %+v", resp)
	}
}

// TestFaultsCorruptOnReadLeavesStoreIntact checks that CorruptEveryN
// damages only the in-flight response copy: the very next clean read
// returns the original bytes.
func TestFaultsCorruptOnReadLeavesStoreIntact(t *testing.T) {
	d := NewDrive(Config{Name: "cor"})
	orig := "payload-payload-payload"
	seedRecord(t, d, "k", orig)

	d.SetFaults(Faults{CorruptEveryN: 1})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("corrupted get status: %v", resp.Status)
	}
	if bytes.Equal(resp.Value, []byte(orig)) {
		t.Fatal("CorruptEveryN=1 returned pristine bytes")
	}
	if st := d.FaultStats(); st.Corrupted != 1 {
		t.Fatalf("corrupted counter = %d, want 1", st.Corrupted)
	}

	d.ClearFaults()
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Value, []byte(orig)) {
		t.Fatalf("store was damaged by read corruption: %q", resp.Value)
	}
}

// TestFaultsCorruptHitsRangeValues: CorruptEveryN counts the values a
// range read returns like GET values, and damages only the response.
func TestFaultsCorruptHitsRangeValues(t *testing.T) {
	d := NewDrive(Config{Name: "cor"})
	for i := 0; i < 4; i++ {
		seedRecord(t, d, fmt.Sprintf("k%d", i), fmt.Sprintf("payload-%d", i))
	}
	d.SetFaults(Faults{CorruptEveryN: 2})
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TGetKeyRange, StartKey: []byte("k0"), EndKey: []byte("k9"), KeyInclusive: true, WithValues: true,
	}))
	if resp.Status != wire.StatusOK || len(resp.Values) != 4 {
		t.Fatalf("range: %v, %d values", resp.Status, len(resp.Values))
	}
	for i, v := range resp.Values {
		pristine := string(v) == fmt.Sprintf("payload-%d", i)
		if wantCorrupt := i%2 == 1; pristine == wantCorrupt {
			t.Errorf("value %d = %q, corrupted want %v", i, v, wantCorrupt)
		}
	}
	if st := d.FaultStats(); st.Corrupted != 2 {
		t.Fatalf("corrupted counter = %d, want 2", st.Corrupted)
	}
	d.ClearFaults()
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k1")}))
	if string(resp.Value) != "payload-1" {
		t.Fatalf("store was damaged by range corruption: %q", resp.Value)
	}
}
