package locks

import (
	"fmt"
	"sort"
	"strings"
)

import "repro/internal/cthreads"

// Kind names a lock implementation, for factories and command-line flags.
type Kind string

// The lock kinds of the paper's evaluation, plus the predictive mutable
// lock and the NUMA cohort lock.
const (
	KindTAS      Kind = "tas"
	KindSpin     Kind = "spin"
	KindBackoff  Kind = "backoff"
	KindBlocking Kind = "blocking"
	KindAdaptive Kind = "adaptive"
	KindMutable  Kind = "mutable"
	KindCohort   Kind = "cohort"
)

// Kinds lists all factory-constructible kinds in table order.
func Kinds() []Kind {
	return []Kind{KindTAS, KindSpin, KindBackoff, KindBlocking, KindAdaptive, KindMutable, KindCohort}
}

// KindNames lists all factory-constructible kinds sorted alphabetically —
// the deterministic order for error messages and flag help text.
func KindNames() []string {
	ks := Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = string(k)
	}
	sort.Strings(names)
	return names
}

// New constructs a lock of the given kind on the given node. Adaptive
// locks get the default SimpleAdapt policy.
func New(sys *cthreads.System, kind Kind, node int, name string) (Lock, error) {
	switch kind {
	case KindTAS:
		return NewTASLock(sys, node, name), nil
	case KindSpin:
		return NewSpinLock(sys, node, name), nil
	case KindBackoff:
		return NewBackoffSpinLock(sys, node, name), nil
	case KindBlocking:
		return NewBlockingLock(sys, node, name), nil
	case KindAdaptive:
		return NewAdaptiveLock(sys, node, name, nil), nil
	case KindMutable:
		return NewMutableLock(sys, node, name), nil
	case KindCohort:
		return NewCohortLock(sys, node, name), nil
	default:
		return nil, fmt.Errorf("locks: unknown kind %q (valid kinds: %s)",
			kind, strings.Join(KindNames(), ", "))
	}
}

// MustNew is New, panicking on error (for table-driven experiment code
// where the kind is a compile-time constant).
func MustNew(sys *cthreads.System, kind Kind, node int, name string) Lock {
	l, err := New(sys, kind, node, name)
	if err != nil {
		panic(err)
	}
	return l
}
