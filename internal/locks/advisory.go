package locks

import (
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// AttrAdvice is the advisory lock's published advice word: 0 advises
// requesters to spin, 1 to sleep.
const AttrAdvice = "advice"

// Advice values.
const (
	AdviseSpin  int64 = 0
	AdviseSleep int64 = 1
)

// AdvisoryLock is the speculative/advisory lock of the paper's footnote 2:
// "The owner of such a lock advises other requesting threads whether to
// spin or sleep while waiting, dynamically changing some attributes of its
// internal state during different phases of computation." The owner knows
// how long it is about to hold the lock (it is about to execute that
// critical section); requesters read the advice word instead of guessing
// with a fixed spin count — which is why the advisory lock does well under
// variable-length critical sections ([MS93] via §2).
type AdvisoryLock struct {
	base
	obj *core.Object

	// Threshold is the expected-hold duration at or below which the owner
	// advises spinning.
	Threshold sim.Time
	// adviceCheckEvery is how many spin iterations a requester performs
	// between re-reads of the advice word.
	adviceCheckEvery int
}

// DefaultAdviceThreshold separates "short" from "long" holds: roughly the
// cost of a blocking handover, below which sleeping cannot pay off.
const DefaultAdviceThreshold = 150 * sim.Microsecond

// NewAdvisoryLock allocates an advisory lock on the given node.
func NewAdvisoryLock(sys *cthreads.System, node int, name string) *AdvisoryLock {
	l := &AdvisoryLock{
		base:             newBase(sys, node, name),
		Threshold:        DefaultAdviceThreshold,
		adviceCheckEvery: 8,
	}
	l.obj = core.NewObject(name)
	l.obj.Attrs.Define(AttrAdvice, AdviseSpin, true)
	sys.WireObject(l.obj, name)
	return l
}

// Object exposes the lock's adaptive object.
func (l *AdvisoryLock) Object() *core.Object { return l.obj }

// advice reads the advice word without charging (callers charge).
func (l *AdvisoryLock) advice() int64 { return l.obj.Attrs.MustGet(AttrAdvice) }

// setAdvice publishes advice derived from an expected hold duration.
func (l *AdvisoryLock) setAdvice(expectedHold sim.Time) {
	v := AdviseSpin
	if expectedHold > l.Threshold {
		v = AdviseSleep
	}
	if err := l.obj.Attrs.Set(AttrAdvice, v, core.OwnerSelf); err != nil {
		panic(err)
	}
}

// Lock acquires with no hold hint: the previous advice stands until the
// new owner advises. Satisfies the Lock interface.
func (l *AdvisoryLock) Lock(t *cthreads.Thread) {
	l.lockInternal(t, -1)
}

// LockHint acquires and then advises requesters based on how long the
// caller expects to hold the lock.
func (l *AdvisoryLock) LockHint(t *cthreads.Thread, expectedHold sim.Time) {
	l.lockInternal(t, expectedHold)
}

// Advise lets the owner re-publish advice mid-critical-section (phase
// changes), charging one write to the lock's node.
func (l *AdvisoryLock) Advise(t *cthreads.Thread, expectedRemaining sim.Time) {
	l.checkOwner(t, "Advise")
	l.setAdvice(expectedRemaining)
	l.chargeAccesses(t, 1)
}

func (l *AdvisoryLock) lockInternal(t *cthreads.Thread, expectedHold sim.Time) {
	start := t.Now()
	t.Compute(SpinLockSteps)
	l.observe(t, l.waiting())
	contended := false
	sinceCheck := 0
	adv := l.advice()
	l.chargeAccesses(t, 1)
	l.spinners++
	//simlint:allow rawspin -- hybrid advised spin re-reads advice every adviceCheckEvery probes; SpinSpec chunking would reorder that charge and drift the deterministic metrics
	for {
		if l.flag.AtomicOr(t, 1) == 0 {
			l.spinners--
			break
		}
		contended = true
		if adv == AdviseSpin {
			l.stats.SpinIters++
			sinceCheck++
			t.Compute(SpinPauseSteps)
			if sinceCheck >= l.adviceCheckEvery {
				sinceCheck = 0
				adv = l.advice()
				l.chargeAccesses(t, 1)
			}
			continue
		}

		// Advised to sleep: sleep, then re-contend on wake (barging, as
		// in the reconfigurable lock).
		l.spinners--
		if l.sleep(t, 0) {
			break
		}
		adv = l.advice()
		l.chargeAccesses(t, 1)
		sinceCheck = 0
		l.spinners++
	}
	l.acquired(t, start, contended)
	if expectedHold >= 0 {
		l.setAdvice(expectedHold)
		l.chargeAccesses(t, 1)
	}
}

// Unlock releases: free the word, then wake the first sleeper if any
// (the grant step, with no extra release work).
func (l *AdvisoryLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(SpinUnlockSteps)
	l.chargeAccesses(t, 1)
	l.grant(t, SchedFCFS, nil, 0)
	l.unlockEnd(t)
}
