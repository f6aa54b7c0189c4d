package kinetic

import (
	"sync/atomic"
	"time"
)

// Faults configures deterministic fault injection on a drive. The zero
// value means "healthy": Handle pays exactly one atomic load on that
// path, so injection compiles to a no-op for production traffic.
//
// Rate-style faults (ErrorEveryN, CorruptEveryN) are counter-driven,
// not random: the Nth request since SetFaults trips them, so a given
// request sequence reproduces the same failures on every run.
type Faults struct {
	// Blackhole drops every request without a response and tears down
	// the carrying connection — the drive has vanished mid-operation.
	// Clients observe deterministic transport errors, which is what
	// feeds the controller's failure detector.
	Blackhole bool
	// SlowFactor >= 2 repeats the modelled media wait that many times,
	// degrading an HDD-model drive without taking it offline.
	SlowFactor int
	// ExtraDelay adds a fixed service delay to every media wait. It is
	// the way to slow a SimMedia drive, which models no service time.
	ExtraDelay time.Duration
	// ErrorEveryN > 0 answers every Nth request with an internal-error
	// status instead of executing it.
	ErrorEveryN int64
	// CorruptEveryN > 0 flips a byte in every Nth value a read returns:
	// a GET response value, or one value of a range read with values.
	// The store itself is untouched (the response is corrupted on a
	// copy); the authenticated codec upstream detects the damage, so
	// this exercises the corrupt-replica repair path end to end.
	CorruptEveryN int64
}

// active reports whether any fault is configured.
func (f Faults) active() bool {
	return f.Blackhole || f.SlowFactor > 1 || f.ExtraDelay > 0 ||
		f.ErrorEveryN > 0 || f.CorruptEveryN > 0
}

// FaultStats counts injected faults since the last SetFaults call.
type FaultStats struct {
	Dropped   uint64 `json:"dropped"`
	Errors    uint64 `json:"errors"`
	Corrupted uint64 `json:"corrupted"`
}

// faultState carries a fault configuration plus the deterministic
// trip counters. A fresh state (fresh counters) is installed on every
// SetFaults, so "every Nth" is relative to the config point.
type faultState struct {
	cfg Faults

	reqs atomic.Int64 // requests seen (ErrorEveryN counter)
	gets atomic.Int64 // values read (CorruptEveryN counter)

	dropped   atomic.Uint64
	errors    atomic.Uint64
	corrupted atomic.Uint64
}

// SetFaults installs a fault configuration on the drive, replacing any
// previous one and resetting the injection counters. A zero Faults
// clears injection entirely.
func (d *Drive) SetFaults(f Faults) {
	if !f.active() {
		d.faults.Store(nil)
		return
	}
	d.faults.Store(&faultState{cfg: f})
}

// ClearFaults removes all fault injection.
func (d *Drive) ClearFaults() { d.faults.Store(nil) }

// Faults returns the currently configured faults (zero when healthy).
func (d *Drive) Faults() Faults {
	if fs := d.faults.Load(); fs != nil {
		return fs.cfg
	}
	return Faults{}
}

// FaultStats returns counts of faults injected since the current
// configuration was installed.
func (d *Drive) FaultStats() FaultStats {
	fs := d.faults.Load()
	if fs == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:   fs.dropped.Load(),
		Errors:    fs.errors.Load(),
		Corrupted: fs.corrupted.Load(),
	}
}
