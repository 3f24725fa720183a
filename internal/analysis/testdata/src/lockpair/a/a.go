// Positive, suppressed, and clean cases for lockpair in client code.
package a

import "lockpair/locks"

type S struct {
	mu  *locks.Mutex
	aux *locks.Mutex
}

// leak releases on the fallthrough path but not on the early return.
func (s *S) leak(fail bool) {
	s.mu.Lock(1) // want `lock s\.mu is released on some paths out of leak but not all`
	if fail {
		return
	}
	s.mu.Unlock(1)
}

// never acquires and returns still holding on every path; cleanupAux
// below is the (deliberately disconnected) release site that keeps the
// package-level pairing satisfied, isolating the per-function finding.
func (s *S) never() {
	s.aux.Lock(1) // want `lock s\.aux is acquired in never but never released on any path`
}

func (s *S) cleanupAux() {
	s.aux.Unlock(1)
}

// handoff is the intentional asymmetry: the combiner releases on this
// thread's behalf, and the suppression carries that justification.
func (s *S) handoff(fail bool) {
	s.mu.Lock(1) //simlint:allow lockpair -- hand-off: the elected combiner releases for us
	if fail {
		return
	}
	s.mu.Unlock(1)
}

// hinted is the type-assertion alias idiom: the acquire goes through
// the narrowed interface, the release through the original, and alias
// resolution pairs them on every path.
func hinted(l locks.Locker, cs int) {
	if hl, ok := l.(locks.Hinted); ok {
		hl.LockHint(cs)
	} else {
		l.Lock(cs)
	}
	l.Unlock(cs)
}

// condWait is the condition-variable shape: release inside the loop,
// reacquire before retesting; net zero on every path.
func (s *S) condWait(ready func() bool) {
	s.mu.Lock(1)
	for !ready() {
		s.mu.Unlock(1)
		s.mu.Lock(1)
	}
	s.mu.Unlock(1)
}

// deferred is the defer-unlock idiom: the deferred release runs on
// every exit after the defer site, so both returns are balanced.
func (s *S) deferred(fail bool) {
	s.mu.Lock(1)
	defer s.mu.Unlock(1)
	if fail {
		return
	}
	s.aux.Lock(1)
	s.aux.Unlock(1)
}
