// Quickstart: build a simulated NUMA multiprocessor, put an adaptive lock
// on it, run a handful of threads through a shared counter, and watch the
// lock configure itself.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	// A 4-node machine with GP1000-flavoured default latencies. Each node
	// pairs a processor with a memory module; remote references cost 4×
	// local ones.
	sys := cthreads.New(sim.Config{Nodes: 4})

	// An adaptive lock on node 0 with the paper's simple adaptation
	// policy: it senses the number of waiting threads on every other
	// unlock and retunes how long requesters spin before sleeping.
	lock := locks.NewAdaptiveLock(sys, 0, "counter-lock", nil)

	// A shared counter in node 0's memory: every access from nodes 1-3 is
	// charged the remote latency automatically.
	counter := sys.Machine().NewCell(0, "counter", 0)

	for proc := 0; proc < 4; proc++ {
		sys.Fork(proc, fmt.Sprintf("worker%d", proc), func(t *cthreads.Thread) {
			for i := 0; i < 100; i++ {
				lock.Lock(t)
				v := counter.Load(t)
				t.Compute(20) // 20 instruction steps of critical-section work
				counter.Store(t, v+1)
				lock.Unlock(t)
				t.Advance(sim.Time(t.Rand().Intn(100)) * sim.Microsecond)
			}
		})
	}

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("counter = %d (expected 400)\n", counter.Peek())
	fmt.Printf("virtual time elapsed: %s\n", sys.Now())
	st := lock.Stats()
	fmt.Printf("lock: %d acquisitions, %d contended, %d blocks, %d spin iterations\n",
		st.Acquisitions, st.Contended, st.Blocks, st.SpinIters)
	fmt.Printf("final lock configuration: %s\n", lock.Object().Configuration())
	fmt.Printf("adaptation: %+v\n", lock.Object().Stats())
}
