package fault

import (
	"sync/atomic"

	"nvref/internal/obs"
)

// Process-wide fault-plane counters. Crash points are a package-level
// mechanism (Crash is called from pmem and txn without a handle), so their
// counters are too. The armed-scheduler check keeps the disarmed hot path
// at one atomic load; counting happens only while a harness is driving.
var (
	crashPointsHit   atomic.Uint64 // Crash calls observed while armed
	crashesFired     atomic.Uint64 // crashes the scheduler triggered
	transientRetries atomic.Uint64 // retry attempts after transient faults
)

// CrashPointsHit returns how many crash points executed while a scheduler
// was armed.
func CrashPointsHit() uint64 { return crashPointsHit.Load() }

// CrashesFired returns how many scheduled crashes actually triggered.
func CrashesFired() uint64 { return crashesFired.Load() }

// TransientRetries returns how many retry attempts ran after transient
// faults, across every RetryPolicy in the process.
func TransientRetries() uint64 { return transientRetries.Load() }

// RegisterMetrics binds the fault-plane counters into reg.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("fault_crash_points_hit_total",
		"crash points executed while a scheduler was armed", CrashPointsHit)
	reg.CounterFunc("fault_crashes_fired_total",
		"scheduled crashes triggered", CrashesFired)
	reg.CounterFunc("fault_transient_retries_total",
		"retry attempts after transient faults", TransientRetries)
}
