package main

import (
	"math"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics computes an untraced run's end-to-end metrics.
func e2eMetrics(setupSecs []float64, ph phaseResult) map[string]metric {
	lat := append([]float64(nil), ph.latencies...)
	sort.Float64s(lat)
	reqs := float64(ph.attempted)
	_, setupMedian, _ := quartiles(setupSecs)
	return map[string]metric{
		"setup_s":          {setupMedian, "s"},
		"reqs_per_s":       {ph.reqsPerSec(), "1/s"},
		"req_ms_p50":       {nearestRank(lat, 0.50), "ms"},
		"req_ms_p90":       {nearestRank(lat, 0.90), "ms"},
		"alloc_mb_per_req": {float64(ph.allocBytes) / 1e6 / reqs, "MB"},
		"peak_rss_mb":      {peakRSSBytes() / 1e6, "MB"},
		"ok_frac":          {1 - float64(ph.failed)/reqs, "frac"},
	}
}

// layerMetrics computes a traced run's per-layer metrics from the traced
// phase, its CPU time by layer, and the throughput of the untraced
// phase that preceded it. observesAll says the profiler saw every solve
// of a request, so that handoff CPU time can be divided by its count.
func layerMetrics(ph phaseResult, cpuByLayer map[string]int64, untracedReqsPerSec float64, procs int, observesAll bool) map[string]metric {
	reqs := float64(ph.attempted)
	c := ph.counters
	perReq := func(v float64) metric { return metric{v / reqs, "count"} }
	frac := func(a, b float64) metric { return metric{ratio(a, b), "frac"} }

	m := map[string]metric{}
	var total int64
	for _, l := range layers {
		m[l+".cpu_ms_per_req"] = metric{float64(cpuByLayer[l]) / 1e6 / reqs, "ms"}
		total += cpuByLayer[l]
	}
	m["trace.layer_frac"] = frac(float64(total-cpuByLayer[layerOther]), float64(total))
	m["trace.overhead_frac"] = metric{1 - ratio(ph.reqsPerSec(), untracedReqsPerSec), "frac"}
	m["host.cpu_util"] = frac(ph.cpu.Seconds(), ph.elapsed.Seconds()*float64(procs))

	m["sim.spin_ffwd_per_req"] = perReq(float64(c.fastForwards))
	m["sim.spin_batched_frac"] = frac(float64(c.batchedIters), float64(c.observedSpinIters))
	m["sim.handoffs_per_req"] = perReq(float64(c.dispatches))
	m["sim.handoff.ns_per_handoff"] = metric{0, "ns"}
	if c.dispatches > 0 && observesAll {
		m["sim.handoff.ns_per_handoff"] = metric{float64(cpuByLayer[layerHandoff]) / float64(c.dispatches), "ns"}
	}
	m["sim.cross_msgs_per_req"] = perReq(float64(c.crossMsgs))

	m["cthreads.ctx_switches_per_req"] = perReq(float64(c.ctxSwitches))
	m["cthreads.wakeups_per_req"] = perReq(float64(c.wakeups))
	m["cthreads.preemptions_per_req"] = perReq(float64(c.preemptions))

	m["locks.acquisitions_per_req"] = perReq(float64(c.lockAcq))
	m["locks.contended_frac"] = frac(float64(c.lockContended), float64(c.lockAcq))
	m["locks.block_frac"] = frac(float64(c.lockBlocks), float64(c.lockAcq))
	m["locks.spin_iters_per_req"] = perReq(float64(c.lockSpinIters))
	m["locks.remote_transfer_frac"] = frac(float64(c.lockRemote), float64(c.lockAcq))

	m["core.samples_per_req"] = perReq(float64(c.ledgerSamples))
	m["core.applies_per_req"] = perReq(float64(c.ledgerApplies))
	m["core.rejected_frac"] = frac(float64(c.ledgerRejected), float64(c.ledgerApplies))

	m["active.batches_per_req"] = perReq(float64(c.batches))
	m["active.max_batch"] = metric{float64(c.maxBatch), "count"}

	m["tsp.expansions_per_req"] = perReq(float64(c.expansions))
	m["tsp.useful_frac"] = metric{0, "frac"}
	if c.expansions > 0 {
		m["tsp.useful_frac"] = frac(float64(c.expansions-c.useless), float64(c.expansions))
	}
	m["runtime.gc_cycles_per_req"] = perReq(float64(ph.gcCycles))
	return m
}

// ratio is a/b, or 0 when b is 0 (a counter the workload never moves).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nearestRank is the q-quantile of sorted values by the nearest-rank
// method: a value actually measured.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
