// Package locks is both the fixture stand-in for the real lock kinds
// (lockpair recognizes lock-likeness by the defining package's path
// base) and a test subject in its own right: protocol methods named
// Lock/Unlock are exempt from the per-function held-at-return check,
// so only the package-level acquire/release pairing can police them.
package locks

// Locker is the lock-kind interface; values typed by it are lock-like.
type Locker interface {
	Lock(cs int)
	Unlock(cs int)
}

// Hinted is the optional combined acquire+critical-section entry point.
type Hinted interface {
	LockHint(cs int)
}

// Mutex is the concrete kind; its protocol methods are event-free so
// fixtures control exactly which events exist.
type Mutex struct{}

func (m *Mutex) Lock(cs int)     {}
func (m *Mutex) LockHint(cs int) {}
func (m *Mutex) Unlock(cs int)   {}

// Retarget delegates to its current inner kind on both sides: exempt
// per function (protocol methods), paired at package level.
type Retarget struct {
	cur *Mutex
}

func (r *Retarget) Lock(cs int)   { r.cur.Lock(cs) }
func (r *Retarget) Unlock(cs int) { r.cur.Unlock(cs) }

// Dropper mirrors a retargetable kind whose Unlock lost its delegation:
// the per-function check cannot object (Lock is a protocol method), but
// Dropper.inner is then acquired somewhere and released nowhere.
type Dropper struct {
	inner *Mutex
}

func (d *Dropper) Lock(cs int) { d.inner.Lock(cs) } // want `lock Dropper\.inner is acquired but released nowhere in this package`

func (d *Dropper) Unlock(cs int) {} // the lost delegation: d.inner.Unlock is gone
