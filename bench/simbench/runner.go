package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// epoch is the zero of every span's host timestamps.
var epoch = time.Now()

// Set-up is repeated so that setup_s can be a median: at least
// minSetupReps times, and more while the reps so far took under
// setupBudget, up to maxSetupReps. Every rep must build the same requests.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = time.Second
)

// span is one timed interval of the benchmark's own code: the set-up reps,
// the timed phase, its reps and its requests. Host times are nanoseconds
// since the process started; sim_ns is the simulated time the request
// produced.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Kind   string `json:"kind"`
	Label  string `json:"label"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sim    int64  `json:"sim_ns,omitempty"`
}

// setup builds the workload's requests repeatedly and returns the last
// build with every rep's duration in seconds.
func setup(s spec, seed uint64) ([]request, []float64, []span, error) {
	var reqs []request
	var secs []float64
	var spans []span
	var spent time.Duration
	for rep := 0; rep < minSetupReps || (spent < setupBudget && rep < maxSetupReps); rep++ {
		start := time.Now()
		got, err := s.build(seed, s.clients)
		if err != nil {
			return nil, nil, nil, err
		}
		end := time.Now()
		if rep > 0 && !sameRequests(reqs, got) {
			return nil, nil, nil, fmt.Errorf("%s: set-up rep %d built different requests or fingerprints than the rep before", s.name, rep)
		}
		reqs = got
		d := end.Sub(start)
		spent += d
		secs = append(secs, d.Seconds())
		spans = append(spans, span{ID: rep + 1, Kind: "setup", Label: fmt.Sprintf("%s/setup%d", s.name, rep),
			Start: int64(start.Sub(epoch)), End: int64(end.Sub(epoch))})
	}
	return reqs, secs, spans, nil
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].label != b[i].label || a[i].want != b[i].want {
			return false
		}
	}
	return true
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	latencies  []float64 // host milliseconds per request
	attempted  int
	failed     int
	failures   []string // the first few failure messages
	elapsed    time.Duration
	cpu        time.Duration // process user+system CPU time
	allocBytes uint64
	gcCycles   uint32
	counters   counters
	spans      []span
}

func (p phaseResult) reqsPerSec() float64 { return float64(p.attempted) / p.elapsed.Seconds() }

// maxFailureMessages bounds the failure messages each client keeps.
const maxFailureMessages = 5

// done is one completed request of a phase, in issue order k.
type done struct {
	k          int
	label      string
	start, end time.Time
	sim        int64
}

// runPhase drives the requests in a closed loop: each of clients
// goroutines issues its next request only when its previous one has
// completed. Requests are issued in rep order (request k is reqs[k%n]),
// and no rep starts after d has elapsed, so the phase always measures
// whole reps — the same request mix whatever the machine's speed. At
// least one rep runs. With traced set, requests run with observers
// attached and are recorded as spans.
func runPhase(reqs []request, clients int, d time.Duration, traced bool) phaseResult {
	n := len(reqs)
	var (
		mu      sync.Mutex
		next    int
		stopped bool
	)
	start := time.Now()
	deadline := start.Add(d)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next > 0 && next%n == 0 && time.Now().After(deadline) {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}

	type clientResult struct {
		res   phaseResult
		dones []done
	}
	results := make([]clientResult, clients)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(cr *clientResult) {
			defer wg.Done()
			var obs *counters
			if traced {
				obs = &cr.res.counters
			}
			for {
				k, ok := claim()
				if !ok {
					return
				}
				req := reqs[k%n]
				t0 := time.Now()
				out, err := req.run(obs)
				t1 := time.Now()
				cr.res.attempted++
				cr.res.latencies = append(cr.res.latencies, float64(t1.Sub(t0))/float64(time.Millisecond))
				if err == nil && out.fingerprint != req.want {
					err = fmt.Errorf("fingerprint %q, want %q", out.fingerprint, req.want)
				}
				if err != nil {
					cr.res.failed++
					if len(cr.res.failures) < maxFailureMessages {
						cr.res.failures = append(cr.res.failures, fmt.Sprintf("%s: %v", req.label, err))
					}
				}
				if traced {
					cr.dones = append(cr.dones, done{k: k, label: req.label, start: t0, end: t1, sim: int64(out.simElapsed)})
				}
			}
		}(&results[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	ph := phaseResult{
		elapsed:    elapsed,
		cpu:        cpuTime() - cpu0,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
	}
	var dones []done
	for _, cr := range results {
		ph.latencies = append(ph.latencies, cr.res.latencies...)
		ph.attempted += cr.res.attempted
		ph.failed += cr.res.failed
		ph.failures = append(ph.failures, cr.res.failures...)
		ph.counters.merge(cr.res.counters)
		dones = append(dones, cr.dones...)
	}
	if traced {
		ph.spans = phaseSpans(dones, n, start, start.Add(elapsed))
	}
	return ph
}

// phaseSpans turns the completed requests into a phase span, one span per
// rep and one per request, with ids in issue order.
func phaseSpans(dones []done, n int, start, end time.Time) []span {
	sort.Slice(dones, func(i, j int) bool { return dones[i].k < dones[j].k })
	const phaseID = 1 << 30 // above any set-up span id
	spans := []span{{ID: phaseID, Kind: "phase", Label: "timed", Start: int64(start.Sub(epoch)), End: int64(end.Sub(epoch))}}
	id, rep := phaseID, 0
	for _, d := range dones {
		s, e := int64(d.start.Sub(epoch)), int64(d.end.Sub(epoch))
		if d.k%n == 0 {
			id++
			rep = len(spans)
			spans = append(spans, span{ID: id, Parent: phaseID, Kind: "rep", Label: fmt.Sprintf("rep%d", d.k/n), Start: s, End: e})
		}
		spans[rep].Start = min(spans[rep].Start, s)
		spans[rep].End = max(spans[rep].End, e)
		id++
		spans = append(spans, span{ID: id, Parent: spans[rep].ID, Kind: "request", Label: d.label, Start: s, End: e, Sim: d.sim})
	}
	return spans
}

// forEach runs fn(0..n-1) over up to workers goroutines and returns the
// first error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who" or buffer, neither possible here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() float64 {
	return float64(rusage().Maxrss) * 1024 // Linux reports kilobytes
}
