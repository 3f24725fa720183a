// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see EXPERIMENTS.md for the recorded
// outputs). Each benchmark runs the corresponding experiment end to end on
// the simulated multiprocessor and reports the paper's quantities as
// custom metrics (simulated milliseconds / microseconds), alongside the
// usual wall-clock cost of running the simulation itself.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/sim"
)

// benchJobs is the sweep fan-out the benchmarks run with: all cores, the
// same default cmd/repro uses. Sim-metric outputs are identical at
// any value; only wall-clock changes.
var benchJobs = runtime.GOMAXPROCS(0)

// benchSpec runs one registered experiment b.N times on env (at the
// benchJobs fan-out) and reports its Result metrics.
func benchSpec(b *testing.B, name string, env experiments.Env) {
	b.Helper()
	spec, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("no experiment %q", name)
	}
	env.Jobs = benchJobs
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = spec.Run(env); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range res.Metrics {
		b.ReportMetric(m.Value, m.Name)
	}
}

// benchSpecMech is benchSpec plus the engines' mechanism counters.
func benchSpecMech(b *testing.B, name string, env experiments.Env) {
	b.Helper()
	before := sim.TotalStats()
	benchSpec(b, name, env)
	reportMech(b, sim.TotalStats().Sub(before))
}

// reportMech reports the mechanism counters of b.N runs, per run, as
// mech-* metrics. For a given engine mode they are exact, so benchjson
// gates them like the sim-* metrics; ns/op divided by mech-events is the
// host cost of one event.
func reportMech(b *testing.B, s sim.Stats) {
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"events", s.Events}, {"dispatches", s.Dispatches},
		{"inline-wakeups", s.InlineWakeups}, {"spin-charges", s.SpinCharges},
		{"commits", s.Commits}, {"member-commits", s.MemberCommits},
		{"batched-iters", s.BatchedIters}, {"shared-commits", s.SharedCommits},
		{"evict-cell", s.EvictCell}, {"evict-module", s.EvictModule},
		{"evict-own", s.EvictOwn}, {"evict-run", s.EvictRun},
		{"evict-tie", s.EvictTie}, {"evict-loop-end", s.EvictLoopEnd},
		{"state-reads", s.StateReads}, {"lane-survivals", s.LaneSurvivals},
		{"lane-refusals", s.LaneRefusals}, {"lane-passed", s.LanePassed},
	} {
		b.ReportMetric(float64(m.v)/float64(b.N), "mech-"+m.name)
	}
}

// BenchmarkTable1 regenerates Table 1: the centralized TSP implementation,
// sequential vs. blocking locks vs. adaptive locks (16-city Euclidean
// instance on 10 processors, the same scale regime as the paper's
// 32-city runs). Tables 1–3 also report the mean waiting count of the
// qlock figure (4, 6, 8) their blocking solve records; the centralized
// one dominating is the shape of Figures 4–9.
func BenchmarkTable1(b *testing.B) { benchSpecMech(b, "table1", experiments.Env{}) }

// BenchmarkTable2 regenerates Table 2: the distributed TSP implementation.
func BenchmarkTable2(b *testing.B) { benchSpecMech(b, "table2", experiments.Env{}) }

// BenchmarkTable3 regenerates Table 3: the distributed implementation with
// load balancing.
func BenchmarkTable3(b *testing.B) { benchSpecMech(b, "table3", experiments.Env{}) }

// BenchmarkTable4 regenerates Table 4: the Lock operation cost of each
// lock kind, local and remote.
func BenchmarkTable4(b *testing.B) { benchSpec(b, "table4", experiments.Env{}) }

// BenchmarkTable5 regenerates Table 5: the Unlock operation cost.
func BenchmarkTable5(b *testing.B) { benchSpec(b, "table5", experiments.Env{}) }

// BenchmarkTable6 regenerates Table 6: locking cycles of the static locks
// on a busy lock.
func BenchmarkTable6(b *testing.B) { benchSpec(b, "table6", experiments.Env{}) }

// BenchmarkTable7 regenerates Table 7: locking cycles of the adaptive lock
// pinned to its spin and blocking configurations.
func BenchmarkTable7(b *testing.B) { benchSpec(b, "table7", experiments.Env{}) }

// BenchmarkTable8 regenerates Table 8: the costs of the basic adaptation
// mechanisms.
func BenchmarkTable8(b *testing.B) { benchSpec(b, "table8", experiments.Env{}) }

// BenchmarkFigure1 regenerates Figure 1: application execution time over
// critical-section length for pure spin, pure blocking, the three
// combined locks, and the mutable and cohort locks. The headline metric
// is the execution-time ratio of the 10-spin combined lock to the 1-spin
// one at a 10µs critical section — below 1.0 it reproduces the paper's
// observation.
func BenchmarkFigure1(b *testing.B) { benchSpecMech(b, "fig1", experiments.Env{}) }

// BenchmarkSchedulerComparison runs the FCFS/priority/handoff client-server
// extension experiment.
func BenchmarkSchedulerComparison(b *testing.B) { benchSpec(b, "sched", experiments.Env{}) }

// BenchmarkSpinVsBlock runs the multiprogramming crossover extension
// experiment ([MS93] §2).
func BenchmarkSpinVsBlock(b *testing.B) { benchSpec(b, "crossover", experiments.Env{}) }

// BenchmarkPolicyAblation sweeps the SimpleAdapt constants (the paper's
// future-work question about Waiting-Threshold and n).
func BenchmarkPolicyAblation(b *testing.B) { benchSpec(b, "ablation", experiments.Env{}) }

// BenchmarkShardedEngine runs one big 1024-node NUMA simulation — the
// client/server ring of the sharded-scaling experiment — partitioned
// into 1, 2, 4, and 8 conservative-parallel shards. The simulated
// quantities are identical in every sub-benchmark by the sharded
// engine's serial-equivalence contract, so any cross-shard drift trips
// the benchjson gate; ns/op shows the wall-clock effect of partitioning
// (real speedup needs real cores — on a single-core host the shards
// time-slice and only the coordination overhead is visible). The
// windows and runnable-shards-per-window counts explain ns/op: they are
// how many barriers the run paid for and how much parallelism each one
// offered.
func BenchmarkShardedEngine(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var row experiments.ShardedRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.ShardedRun(sim.Config{Nodes: 1024, Seed: 1}, shards, 0, 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SimTime.Millis(), "sim-ms-elapsed")
			b.ReportMetric(float64(row.CrossMsgs), "sim-cross-msgs")
			b.ReportMetric(float64(row.Checksum%1_000_000_007), "sim-checksum")
			b.ReportMetric(float64(row.Coord.Windows), "sim-windows")
			perWindow := 0.0
			if row.Coord.Windows > 0 {
				perWindow = float64(row.Coord.ShardWindows) / float64(row.Coord.Windows)
			}
			b.ReportMetric(perWindow, "sim-shards-per-window")
		})
	}
}

// BenchmarkAdvisoryLock runs the variable-length critical-section
// extension experiment ([MS93] via §2: advisory locks do well when
// critical-section lengths vary).
func BenchmarkAdvisoryLock(b *testing.B) { benchSpec(b, "advisory", experiments.Env{}) }

// BenchmarkLockRetargeting runs the §2 lock-representation ablation:
// centralized remote-spin TAS vs. distributed local-spin MCS under
// memory-module contention.
func BenchmarkLockRetargeting(b *testing.B) { benchSpec(b, "retarget", experiments.Env{}) }

// BenchmarkCoupling measures the feedback-loop coupling comparison: the
// closely-coupled inline monitor vs. the general-purpose thread monitor
// pipeline, reporting the loose loop's decision lag.
func BenchmarkCoupling(b *testing.B) { benchSpec(b, "coupling", experiments.Env{}) }

// BenchmarkPlatformRetargeting sweeps UMA/NUMA/NORMA machine presets,
// reporting how the spin/block preference shifts (§2).
func BenchmarkPlatformRetargeting(b *testing.B) { benchSpec(b, "platform", experiments.Env{}) }

// BenchmarkScaling sweeps the centralized TSP comparison over processor
// counts (§4's "gain even higher for massively parallel" prediction) on
// the default 16-city instance `repro scaling` runs, the costliest
// experiment of `repro all`.
func BenchmarkScaling(b *testing.B) { benchSpecMech(b, "scaling", experiments.Env{}) }

// BenchmarkSOR runs the massively-parallel SOR comparison (the §7
// follow-on study): blocking vs. adaptive residual lock across worker
// counts.
func BenchmarkSOR(b *testing.B) { benchSpec(b, "sor", experiments.Env{}) }

// BenchmarkAdaptiveBarrier compares spin, sleep, and adaptive barriers on
// SOR in private and multiprogrammed regimes (§7's "other operating
// system components").
func BenchmarkAdaptiveBarrier(b *testing.B) { benchSpec(b, "barrier", experiments.Env{}) }

// BenchmarkLockContended measures the contended-acquire regime the
// spin-batching fast path targets: waiters hammering one lock word on the
// hot-spot machine (every futile probe costs module service). The
// simulated completion time is the deterministic metric; ns/op shows how
// cheaply the simulator now gets there.
func BenchmarkLockContended(b *testing.B) {
	builders := []struct {
		name  string
		build func(sys *cthreads.System) locks.Lock
	}{
		{"spin", func(sys *cthreads.System) locks.Lock {
			return locks.NewSpinLock(sys, 0, "spin")
		}},
		{"backoff", func(sys *cthreads.System) locks.Lock {
			return locks.NewBackoffSpinLock(sys, 0, "backoff")
		}},
		{"mcs", func(sys *cthreads.System) locks.Lock {
			return locks.NewLocalSpinLock(sys, 0, "mcs")
		}},
		{"mutable", func(sys *cthreads.System) locks.Lock {
			return locks.NewMutableLock(sys, 0, "mutable")
		}},
		{"cohort", func(sys *cthreads.System) locks.Lock {
			return locks.NewCohortLock(sys, 0, "cohort")
		}},
	}
	for _, bl := range builders {
		for _, waiters := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s/w%d", bl.name, waiters), func(b *testing.B) {
				var elapsed sim.Time
				var spins uint64
				before := sim.TotalStats()
				for i := 0; i < b.N; i++ {
					cfg := sim.HotSpotConfig()
					cfg.Nodes = waiters
					cfg.Seed = 1
					sys := cthreads.New(cfg)
					l := bl.build(sys)
					for w := 0; w < waiters; w++ {
						sys.Fork(w, fmt.Sprintf("w%d", w), func(th *cthreads.Thread) {
							r := th.Rand()
							for j := 0; j < 20; j++ {
								l.Lock(th)
								th.Advance(2 * sim.Microsecond)
								l.Unlock(th)
								th.Advance(sim.Time(r.Intn(2000)))
							}
						})
					}
					if err := sys.Run(); err != nil {
						b.Fatal(err)
					}
					elapsed = sys.Now()
					spins = l.Stats().SpinIters
				}
				b.ReportMetric(elapsed.Micros(), "sim-µs-elapsed")
				b.ReportMetric(float64(spins), "sim-spin-iters")
				reportMech(b, sim.TotalStats().Sub(before))
			})
		}
	}
}

// benchMonitorHotspot reports one execution mode of the contended-hotspot
// monitor benchmark: callers threads hammer one monitor with short
// methods. The simulated completion time and method-latency percentiles
// are the deterministic metrics; the tentpole claim is the p99 cut of the
// combining modes at high caller counts.
func benchMonitorHotspot(b *testing.B, mode string) {
	for _, callers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("c%d", callers), func(b *testing.B) {
			var row experiments.MonitorHotspotRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.MonitorHotspotRun(sim.Config{}, mode, callers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Elapsed.Micros(), "sim-µs-elapsed")
			b.ReportMetric(row.P50.Micros(), "sim-µs-p50")
			b.ReportMetric(row.P99.Micros(), "sim-µs-p99")
			b.ReportMetric(float64(row.MaxBatch), "sim-max-batch")
		})
	}
}

// BenchmarkMonitorSync is the synchronous-locking baseline through the
// monitor entry path.
func BenchmarkMonitorSync(b *testing.B) { benchMonitorHotspot(b, "sync") }

// BenchmarkMonitorAsync is flat combining: submitters enqueue futures and
// an elected lock holder drains the queue in batches.
func BenchmarkMonitorAsync(b *testing.B) { benchMonitorHotspot(b, "flat") }

// BenchmarkMonitorCombining is the dedicated server-thread combiner.
func BenchmarkMonitorCombining(b *testing.B) { benchMonitorHotspot(b, "server") }
