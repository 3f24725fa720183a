package core

// SimpleAdapt is the paper's adaptation policy from §4, verbatim but
// parameterized:
//
//	IF no-of-waiting-threads = 0
//	    Configure the lock to be pure spin;
//	ELSE IF no-of-waiting-threads ≤ Waiting-Threshold
//	    Increase no-of-spins by n;
//	ELSE IF no-of-waiting-threads > Waiting-Threshold
//	    Decrease no-of-spins by 2*n;
//	IF no-of-spins ≤ 0
//	    Configure the lock to be pure blocking;
//
// "Pure spin" is represented by raising the spin attribute to MaxSpin (a
// waiter never exhausts its spins before the sample horizon) and "pure
// blocking" by a spin attribute of zero. The policy reads the current spin
// attribute through the object's AttrSet, so its cost is visible in the
// object's cost accounting.
type SimpleAdapt struct {
	// SpinAttr is the attribute holding the number of initial spins
	// (typically locks.AttrSpinTime).
	SpinAttr string
	// WaitingThreshold is the waiting-thread count above which spins are
	// decreased (the paper's Waiting-Threshold).
	WaitingThreshold int64
	// Step is the lock-specific constant n.
	Step int64
	// MaxSpin caps the spin count and encodes the pure-spin configuration.
	MaxSpin int64
}

// DefaultSimpleAdapt returns the constants used by the TSP experiments:
// threshold 3, step 10, cap 1000. The paper leaves tuning Waiting-Threshold
// and n to future work; repro ablation sweeps them.
func DefaultSimpleAdapt(spinAttr string) SimpleAdapt {
	return SimpleAdapt{SpinAttr: spinAttr, WaitingThreshold: 3, Step: 10, MaxSpin: 1000}
}

// React implements Policy.
func (p SimpleAdapt) React(s Sample, o *Object) []Decision {
	cur, err := o.Attrs.Get(p.SpinAttr)
	if err != nil {
		return nil
	}
	waiting := s.Value
	var next int64
	switch {
	case waiting == 0:
		next = p.MaxSpin
	case waiting <= p.WaitingThreshold:
		next = cur + p.Step
	default:
		next = cur - 2*p.Step
	}
	if next > p.MaxSpin {
		next = p.MaxSpin
	}
	if next < 0 {
		next = 0
	}
	if next == cur {
		return nil
	}
	return []Decision{{Attr: p.SpinAttr, Value: next}}
}
