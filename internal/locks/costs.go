package locks

import "repro/internal/sim"

// The lock family's cost calibration: the instruction-step charges of
// each lock operation. Steps are multiplied by the machine's
// per-instruction cost (sim.Config.Instr, default 250ns); memory
// references are charged separately through sim.Cell at the machine's
// local/remote latencies. Retargeting to another machine changes
// sim.Config, not these constants.
//
// The values are chosen so that, on the default machine, the §5.2
// microbenchmarks land near the paper's measurements: an atomior-only lock
// operation near 31µs local, a spin-lock operation near 41µs, a blocking
// lock operation near 89µs, spin unlock near 5µs, blocking unlock near
// 62µs, and so on. The large fixed charges reflect that on the GP1000 a
// lock operation was a C library call on a 16MHz processor.
const (
	// TASLockSteps is the call overhead of the raw atomior lock operation.
	TASLockSteps = 118
	// TASUnlockSteps is the raw unlock overhead.
	TASUnlockSteps = 6
	// SpinLockSteps is the call + registration overhead of spin-family
	// lock operations (spin, backoff, reconfigurable, adaptive).
	SpinLockSteps = 146
	// SpinUnlockSteps is the spin-family unlock overhead.
	SpinUnlockSteps = 16
	// BlockLockSteps is the call + registration overhead of the blocking
	// lock's lock operation (it must prepare a queue record).
	BlockLockSteps = 342
	// BlockUnlockSteps is the blocking unlock overhead (queue inspection,
	// scheduler release component).
	BlockUnlockSteps = 240
	// AdaptUnlockSteps is the adaptive/reconfigurable unlock overhead:
	// cheaper than the blocking lock's (the fast path only peeks at the
	// queue) but dearer than a spin lock's.
	AdaptUnlockSteps = 186
	// SpinPauseSteps is the pause between spin-loop iterations.
	SpinPauseSteps = 2
	// QueueOpAccesses is the number of memory references to the lock's
	// node for one wait-queue insert or remove.
	QueueOpAccesses = 2
	// PostWakeSteps is the cost a woken waiter pays to finish acquiring.
	PostWakeSteps = 8
	// GrantExtraSteps is the extra release-component work the
	// reconfigurable/adaptive lock performs when handing the lock to a
	// sleeping waiter (scheduler variant dispatch, ownership transfer).
	GrantExtraSteps = 110
	// BackoffUnit is the per-waiting-thread backoff delay of the
	// spin-with-backoff lock (Anderson et al.: proportional to the number
	// of threads waiting).
	BackoffUnit = 60 * sim.Microsecond
	// MonitorSampleSteps is the closely-coupled customized lock monitor's
	// cost to collect one sample and run the adaptation policy.
	MonitorSampleSteps = 14
	// GeneralMonitorSteps is the cost of routing one state variable
	// through the general-purpose thread monitor (Table 8's "monitor (one
	// state variable)" row; the paper measured 66µs and found it too
	// loosely coupled for adaptive locks).
	GeneralMonitorSteps = 260
)
