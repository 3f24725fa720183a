package main

import "strings"

// The layers CPU time is charged to. The first ten are the simulator's
// own; "other" takes what no layer claims (the benchmark, the workload
// and experiment drivers, the observers, and runtime work no layer
// caused).
const (
	layerHeap     = "sim.heap"
	layerSpin     = "sim.spin"
	layerHandoff  = "sim.handoff"
	layerShard    = "sim.shard"
	layerEngine   = "sim.engine"
	layerCthreads = "cthreads"
	layerLocks    = "locks"
	layerCore     = "core"
	layerActive   = "active"
	layerTSP      = "tsp"
	layerGC       = "runtime.gc"
	layerOther    = "other"
)

// layers lists every layer in report order.
var layers = []string{
	layerHeap, layerSpin, layerHandoff, layerShard, layerEngine,
	layerCthreads, layerLocks, layerCore, layerActive, layerTSP,
	layerGC, layerOther,
}

const repro = "repro/internal/"

// packageLayers charges the simulator's other packages by package.
var packageLayers = map[string]string{
	"cthreads": layerCthreads,
	"locks":    layerLocks,
	"core":     layerCore,
	"active":   layerActive,
	"tsp":      layerTSP,
}

// simLayers splits package sim by function; the rest of sim (the event
// loop, memory-cell ops, the machine model) is sim.engine, and every
// (*Sharded) method is sim.shard. reserveAccess maps to "": every
// memory-cell access books through it, so it takes the layer of its
// caller (runSpin for spin emulation, a cell op otherwise).
var simLayers = map[string]string{
	"(*Machine).reserveAccess":  "",
	"(*eventQueue).push":        layerHeap,
	"(*eventQueue).pop":         layerHeap,
	"(*eventQueue).len":         layerHeap,
	"(*event).less":             layerHeap,
	"(*Engine).schedule":        layerHeap,
	"(*Engine).runSpin":         layerSpin,
	"(*Engine).fastForwardSpin": layerSpin,
	"(*Coro).SpinUntil":         layerSpin,
	"(*Coro).spinSlow":          layerSpin,
	"(*Engine).dispatch":        layerHandoff,
	"(*Coro).yieldToEngine":     layerHandoff,
}

// gcPrefixes are the runtime's allocation and garbage-collection
// functions, charged to runtime.gc wherever they are called from.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.makemap", "runtime.growslice",
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframe", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mspan)", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*sweepLocked)",
}

// schedFuncs are the runtime's goroutine hand-off functions: channel
// operations, parking and the scheduler. Beneath sim's dispatch and
// yieldToEngine, or on a scheduler stack with no caller at all, they are
// the cost of the coroutine handoff.
var schedFuncs = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true,
	"chanrecv2": true, "send": true, "recv": true, "selectgo": true,
	"gopark": true, "goready": true, "ready": true, "park_m": true,
	"schedule": true, "findRunnable": true, "execute": true, "gogo": true,
	"mcall": true, "gosched_m": true, "goschedImpl": true, "goexit0": true,
	"runqget": true, "runqput": true, "runqgrab": true, "runqsteal": true,
	"globrunqget": true, "stealWork": true, "wakep": true, "startm": true,
	"stopm": true, "mPark": true, "handoffp": true, "acquirep": true,
	"releasep": true, "resetspinning": true, "checkTimers": true,
	"netpoll": true, "notesleep": true, "notewakeup": true, "futex": true,
	"futexsleep": true, "futexwakeup": true, "semasleep": true,
	"semawakeup": true, "usleep": true, "osyield": true, "procyield": true,
	"casgstatus": true, "lock2": true, "unlock2": true,
}

// frameLayer classifies one function symbol. It returns the layer the
// frame's self time belongs to, or "" for a frame that is charged to its
// caller (the rest of the runtime, the standard library, the metrics
// helpers); sched marks a runtime hand-off frame.
func frameLayer(sym string) (layer string, sched bool) {
	pkg, fn := splitSymbol(sym)
	switch {
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(sym, p) {
				return layerGC, false
			}
		}
		name, _, _ := strings.Cut(fn, ".")
		return "", schedFuncs[name]
	case pkg == repro+"sim":
		if l, ok := simLayers[methodOf(fn)]; ok {
			return l, false
		}
		if strings.HasPrefix(fn, "(*Sharded).") {
			return layerShard, false
		}
		return layerEngine, false
	case strings.HasPrefix(pkg, repro):
		if l, ok := packageLayers[strings.TrimPrefix(pkg, repro)]; ok {
			return l, false
		}
		if pkg == repro+"metrics" {
			return "", false
		}
		return layerOther, false
	case pkg == "main":
		return layerOther, false
	}
	return "", false
}

// sampleLayer charges one sample's stack (leaf first) to the first frame
// that names a layer. A stack of nothing but runtime hand-off frames is
// the scheduler switching between the simulator's goroutines.
func sampleLayer(stack []string) string {
	sched := false
	for _, f := range stack {
		l, s := frameLayer(f)
		if l != "" {
			return l
		}
		sched = sched || s
	}
	if sched {
		return layerHandoff
	}
	return layerOther
}

// splitSymbol splits "repro/internal/sim.(*Engine).dispatch" into its
// package path and the rest.
func splitSymbol(sym string) (pkg, fn string) {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym, ""
	}
	return sym[:slash+1+dot], sym[slash+1+dot+1:]
}

// methodOf strips closure suffixes: "(*Engine).schedule.func1" is charged
// like "(*Engine).schedule".
func methodOf(fn string) string {
	recv, rest := "", fn
	if strings.HasPrefix(fn, "(") {
		if i := strings.Index(fn, ")."); i >= 0 {
			recv, rest = fn[:i+2], fn[i+2:]
		}
	}
	name, _, _ := strings.Cut(rest, ".")
	return recv + name
}

// attribute sums the samples' CPU nanoseconds by layer.
func attribute(samples []cpuSample) map[string]int64 {
	by := map[string]int64{}
	for _, s := range samples {
		by[sampleLayer(s.stack)] += s.nanos
	}
	return by
}
