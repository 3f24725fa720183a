package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweep runs fn(0..n-1) — one fully independent simulation configuration
// per index — on up to e.Jobs OS-level workers and returns the results in
// input order, so output is byte-identical to the serial path regardless
// of worker count. Each configuration must build its own Engine and RNG
// (every experiment in this package does); nothing else is shared, so the
// virtual timelines cannot interleave.
//
// The sweep runs serially in the caller's goroutine, stopping at the
// first error, when e.Jobs <= 1 or e has an observer attached: a tracer,
// profiler or ledger records one virtual timeline, and concurrent
// simulations would interleave theirs nondeterministically. Otherwise
// workers are capped at min(e.Jobs, GOMAXPROCS, n); on error the
// remaining indices are cancelled and the error of the lowest index is
// returned, matching what a serial run would have surfaced. A panic in any
// configuration is re-raised in the caller.
func sweep[T any](e Env, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if e.Jobs <= 1 || e.observed() || n == 1 {
		out := make([]T, 0, n)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	workers := e.Jobs
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		panicked atomic.Pointer[any]
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
						}
					}()
					results[i], errs[i] = fn(i)
					if errs[i] != nil {
						failed.Store(true)
					}
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
