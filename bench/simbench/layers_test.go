package main

import (
	"strings"
	"testing"
)

// TestSampleLayer is the classifier's fixture: real symbol names from
// runtime/pprof profiles of the four workloads, leaf first.
func TestSampleLayer(t *testing.T) {
	const sim, cth = "repro/internal/sim.", "repro/internal/cthreads."
	tests := []struct {
		stack []string
		want  string
	}{
		{[]string{sim + "(*eventQueue).pop", sim + "(*Engine).Run"}, layerHeap},
		{[]string{sim + "(*event).less", sim + "(*eventQueue).push", sim + "(*Engine).schedule"}, layerHeap},
		{[]string{sim + "(*Engine).schedule.func1"}, layerHeap},
		{[]string{sim + "(*Engine).runSpin", sim + "(*Engine).fire"}, layerSpin},
		{[]string{sim + "(*Machine).reserveAccess", sim + "(*Engine).runSpin"}, layerSpin},
		{[]string{sim + "(*Machine).reserveAccess", sim + "(*Machine).chargeAccess", sim + "(*Cell).Load"}, layerEngine},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", sim + "(*Coro).yieldToEngine", sim + "(*Coro).Sleep"}, layerHandoff},
		{[]string{"runtime.wakep", "runtime.ready", "runtime.send", "runtime.chansend", "runtime.chansend1", sim + "(*Engine).dispatch"}, layerHandoff},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerHandoff},
		{[]string{sim + "(*Sharded).deliver", sim + "(*Sharded).loop"}, layerShard},
		{[]string{sim + "(*Sharded).runShards.func1"}, layerShard},
		{[]string{"runtime.mapaccess2_fast64", sim + "(*Engine).Spawn.func1"}, layerEngine},
		{[]string{cth + "(*Processor).dispatch", cth + "(*Thread).Advance"}, layerCthreads},
		{[]string{"repro/internal/locks.(*MutableLock).Lock", "repro/internal/workload.RunCS.func1"}, layerLocks},
		{[]string{"sort.insertionSort", "sort.Sort", "repro/internal/core.(*Object).Sample"}, layerCore},
		{[]string{"repro/internal/metrics.(*Histogram).Record", "repro/internal/active.(*Monitor).complete"}, layerActive},
		{[]string{"repro/internal/tsp.(*Node).at", "repro/internal/tsp.(*Node).reduce"}, layerTSP},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "repro/internal/tsp.(*Node).Expand"}, layerGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.(*mheap).alloc", "runtime.(*mcentral).grow"}, layerGC},
		{[]string{"aeshashbody", "runtime.mapassign_faststr", "repro/internal/profile.(*ThreadProf).charge"}, layerOther},
		{[]string{"repro/internal/workload.RunCS.func1", "repro/internal/cthreads.(*System).Fork.func1"}, layerOther},
		{[]string{"repro/internal/experiments.sweep[...].func1"}, layerOther},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "main.runPhase.func2"}, layerOther},
		{[]string{"runtime.sysmon", "runtime.mstart1"}, layerOther},
		{nil, layerOther},
	}
	for _, tt := range tests {
		if got := sampleLayer(tt.stack); got != tt.want {
			t.Errorf("sampleLayer(%s) = %s, want %s", strings.Join(tt.stack, " < "), got, tt.want)
		}
	}
}

func TestAttributeSumsByLayer(t *testing.T) {
	got := attribute([]cpuSample{
		{stack: []string{"repro/internal/sim.(*eventQueue).pop"}, nanos: 10},
		{stack: []string{"repro/internal/sim.(*event).less"}, nanos: 20},
		{stack: []string{"main.main"}, nanos: 5},
	})
	if got[layerHeap] != 30 || got[layerOther] != 5 || len(got) != 2 {
		t.Fatalf("attribute = %v", got)
	}
}
