package experiments

import (
	"fmt"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/tsp"
)

// Execution modes of the contended-hotspot monitor benchmark. "sync" is
// the paper's synchronous locking baseline through the same monitor
// entry; "flat" and "server" are the two asynchronous combiners;
// "adaptive" starts synchronous and lets core.ExecModeAdapt switch.
var HotspotModes = []string{"sync", "flat", "server", "adaptive"}

// hotspotCallers are the caller counts of the hotspot sweep, matching the
// BenchmarkMonitor* macro benchmarks.
var hotspotCallers = []int{2, 8, 32}

// MonitorHotspotRow is one (mode, callers) cell of the contended-hotspot
// comparison: total completion time and the method-completion latency
// digest from metrics.Histogram.
type MonitorHotspotRow struct {
	Mode    string
	Callers int
	Elapsed sim.Time
	P50     sim.Time
	P99     sim.Time
	P999    sim.Time
	Batches uint64
	// MaxBatch is the largest combining batch (0 for pure sync).
	MaxBatch uint64
}

// monitorConfig builds the active.Config for one hotspot mode. The
// monitor's mutual exclusion is the blocking lock in every mode — a
// monitor's waiters sleep, which is exactly the regime where combining
// saves the per-method Wakeup + ContextSwitch handoff.
func monitorConfig(mode string, node int) active.Config {
	cfg := active.Config{Node: node, Name: "hotspot", LockKind: locks.KindBlocking}
	switch mode {
	case "flat":
		cfg.ExecMode = active.ExecAsync
	case "server":
		cfg.ExecMode = active.ExecAsync
		cfg.Combiner = active.CombinerServer
	case "adaptive":
		cfg.ExecMode = active.ExecSync
		cfg.SensorEvery = 2
	}
	return cfg
}

// runHotspot runs one contended-hotspot configuration: callers threads
// hammer one monitor with short methods and little think time, so almost
// every invocation meets contention.
func runHotspot(machine sim.Config, mode string, callers, iters int) (MonitorHotspotRow, error) {
	if machine.Nodes < callers {
		machine.Nodes = callers
	}
	sys := cthreads.New(machine)
	cfg := monitorConfig(mode, 0)
	m := active.New(sys, cfg)
	if mode == "adaptive" {
		m.Object().SetPolicy(core.ExecModeAdapt{
			Attr: active.AttrExecMode, Sync: active.ExecSync, Async: active.ExecAsync,
			AsyncAt: 4, SyncAt: 1,
		})
	}
	counter := 0
	workers := make([]*cthreads.Thread, callers)
	for i := 0; i < callers; i++ {
		workers[i] = sys.Fork(i%sys.Procs(), fmt.Sprintf("caller%d", i), func(t *cthreads.Thread) {
			for j := 0; j < iters; j++ {
				m.Invoke(t, func(b *cthreads.Thread) {
					b.Compute(200) // the hotspot method: short shared-state update
					counter++
				})
				t.Advance(sim.Time(t.Rand().Intn(2000)))
			}
		})
	}
	sys.Fork(0, "closer", func(t *cthreads.Thread) {
		for _, w := range workers {
			t.Join(w)
		}
		m.Shutdown(t)
	})
	if err := sys.Run(); err != nil {
		return MonitorHotspotRow{}, fmt.Errorf("hotspot %s/%d: %w", mode, callers, err)
	}
	if counter != callers*iters {
		return MonitorHotspotRow{}, fmt.Errorf("hotspot %s/%d: executed %d of %d methods", mode, callers, counter, callers*iters)
	}
	h := m.Latency()
	st := m.Stats()
	return MonitorHotspotRow{
		Mode: mode, Callers: callers, Elapsed: sys.Now(),
		P50: h.P50(), P99: h.P99(), P999: h.P999(),
		Batches: st.Batches, MaxBatch: st.MaxBatch,
	}, nil
}

// MonitorHotspotRun runs one (mode, callers) hotspot cell — the unit the
// BenchmarkMonitor* macro benchmarks report.
func MonitorHotspotRun(machine sim.Config, mode string, callers int) (MonitorHotspotRow, error) {
	return runHotspot(machine, mode, callers, 30)
}

// MonitorHotspot sweeps execution mode × caller count on the contended
// hotspot, fanning independent runs over up to e.Jobs workers. The headline
// is the p99 method-completion cut of the combining modes under high
// contention; at 2 callers the submit/future overhead keeps sync ahead —
// both sides are reported as measured.
func MonitorHotspot(e Env) ([]MonitorHotspotRow, error) {
	n := len(HotspotModes) * len(hotspotCallers)
	return sweep(e, n, func(i int) (MonitorHotspotRow, error) {
		mode := HotspotModes[i/len(hotspotCallers)]
		callers := hotspotCallers[i%len(hotspotCallers)]
		return runHotspot(e.Machine, mode, callers, 30)
	})
}

// RenderMonitorHotspot renders the hotspot sweep.
func RenderMonitorHotspot(rows []MonitorHotspotRow) *metrics.Table {
	tb := metrics.NewTable("Contended hotspot: method-completion latency by execution mode",
		"Mode", "Callers", "elapsed (µs)", "p50 (µs)", "p99 (µs)", "p999 (µs)", "batches", "max batch")
	for _, r := range rows {
		tb.AddRow(r.Mode, fmt.Sprintf("%d", r.Callers), us(r.Elapsed),
			us(r.P50), us(r.P99), us(r.P999),
			fmt.Sprintf("%d", r.Batches), fmt.Sprintf("%d", r.MaxBatch))
	}
	return tb
}

// MonitorPhaseSwitch is one exec-mode reconfiguration from the
// phase-change run's ledger.
type MonitorPhaseSwitch struct {
	At       int64
	Decision string
	// Value is the sensed concurrency that triggered the decision.
	Value int64
}

// MonitorPhaseReport is the outcome of the phase-changing workload: the
// sensor-driven execution-mode switches plus the per-mode call split
// proving both modes actually ran.
type MonitorPhaseReport struct {
	Switches  []MonitorPhaseSwitch
	SyncCalls uint64
	Submits   uint64
	Elapsed   sim.Time
}

// MonitorPhases drives a calm → storm → calm workload against an
// adaptive monitor and reports every exec-mode switch its policy made:
// the monitor must go asynchronous when the storm's concurrency builds
// and return to synchronous execution when it passes.
func MonitorPhases(machine sim.Config) (MonitorPhaseReport, error) {
	if machine.Nodes < 8 {
		machine.Nodes = 8
	}
	sys := cthreads.New(machine)
	ledger := core.NewLedger(0)
	sys.SetLedger(ledger)
	m := active.New(sys, active.Config{Node: 0, Name: "phase-mon", ExecMode: active.ExecSync, SensorEvery: 1})
	m.Object().SetPolicy(core.ExecModeAdapt{
		Attr: active.AttrExecMode, Sync: active.ExecSync, Async: active.ExecAsync,
		AsyncAt: 4, SyncAt: 1,
	})
	body := func(b *cthreads.Thread) { b.Compute(200) }
	solo := sys.Fork(0, "solo", func(t *cthreads.Thread) {
		for j := 0; j < 40; j++ {
			m.Invoke(t, body)
			t.Advance(5 * sim.Microsecond)
		}
	})
	storm := make([]*cthreads.Thread, 8)
	for i := range storm {
		storm[i] = sys.Fork(i, fmt.Sprintf("storm%d", i), func(t *cthreads.Thread) {
			t.Join(solo)
			for j := 0; j < 50; j++ {
				m.Invoke(t, body)
			}
		})
	}
	sys.Fork(0, "calm", func(t *cthreads.Thread) {
		for _, s := range storm {
			t.Join(s)
		}
		for j := 0; j < 40; j++ {
			m.Invoke(t, body)
			t.Advance(5 * sim.Microsecond)
		}
		m.Shutdown(t)
	})
	if err := sys.Run(); err != nil {
		return MonitorPhaseReport{}, fmt.Errorf("monitor phases: %w", err)
	}
	rep := MonitorPhaseReport{Elapsed: sys.Now()}
	for _, e := range ledger.Entries() {
		if e.Kind == core.EntryApply && e.Err == "" && e.Object == "phase-mon" {
			rep.Switches = append(rep.Switches, MonitorPhaseSwitch{At: e.At, Decision: e.Decision, Value: e.Value})
		}
	}
	st := m.Stats()
	rep.SyncCalls, rep.Submits = st.SyncCalls, st.Submits
	return rep, nil
}

// RenderMonitorPhases renders the phase-change report.
func RenderMonitorPhases(rep MonitorPhaseReport) *metrics.Table {
	tb := metrics.NewTable(
		fmt.Sprintf("Per-phase execution-mode adaptation (%d sync calls, %d async submits)",
			rep.SyncCalls, rep.Submits),
		"at (µs)", "decision", "sensed concurrency")
	for _, s := range rep.Switches {
		tb.AddRow(us(sim.Time(s.At)), s.Decision, fmt.Sprintf("%d", s.Value))
	}
	return tb
}

// WaitLatencyRow is one lock kind's per-acquisition wait-latency digest
// on a uniformly contended workload.
type WaitLatencyRow struct {
	Kind    locks.Kind
	Summary string
}

// WaitLatencySweep runs a contended critical-section workload per lock
// kind with a profiler attached and reports each kind's
// per-acquisition wait latency (metrics.Histogram Summary: n, mean, p50,
// p99, p999, max).
func WaitLatencySweep(e Env) ([]WaitLatencyRow, error) {
	if len(e.Kinds) == 0 {
		e.Kinds = locks.Kinds()
	}
	if e.Machine.Nodes < 8 {
		e.Machine.Nodes = 8
	}
	return sweep(e, len(e.Kinds), func(i int) (WaitLatencyRow, error) {
		kind := e.Kinds[i]
		sys := cthreads.New(e.Machine)
		prof := profile.New()
		sys.SetProfiler(prof)
		l, err := locks.New(sys, kind, 0, string(kind))
		if err != nil {
			return WaitLatencyRow{}, err
		}
		for w := 0; w < 8; w++ {
			sys.Fork(w%sys.Procs(), fmt.Sprintf("w%d", w), func(t *cthreads.Thread) {
				for j := 0; j < 20; j++ {
					l.Lock(t)
					t.Advance(5 * sim.Microsecond)
					l.Unlock(t)
					t.Advance(sim.Time(t.Rand().Intn(int(20 * sim.Microsecond))))
				}
			})
		}
		if err := sys.Run(); err != nil {
			return WaitLatencyRow{}, fmt.Errorf("wait latency %s: %w", kind, err)
		}
		return WaitLatencyRow{Kind: kind, Summary: prof.WaitHistogram(string(kind)).Summary()}, nil
	})
}

// RenderWaitLatency renders the per-kind wait-latency digests.
func RenderWaitLatency(rows []WaitLatencyRow) *metrics.Table {
	tb := metrics.NewTable("Per-acquisition wait latency by lock kind (contended, 8 threads)",
		"Lock type", "wait digest")
	for _, r := range rows {
		tb.AddRow(string(r.Kind), r.Summary)
	}
	return tb
}

// TSPAsyncRow is one async-queue mode of the centralized TSP solve: total
// completion time plus the shared queue's method-completion digest and
// monitor counters. Mode "off" is the untouched baseline path.
type TSPAsyncRow struct {
	Mode    string
	Elapsed sim.Time
	P50     sim.Time
	P99     sim.Time
	P999    sim.Time
	Stats   active.Stats
}

// TSPAsyncQueue solves one centralized TSP instance per shared-queue
// execution mode — off (the untouched lock-per-operation path), sync
// (through the monitor, synchronous locking), flat, server, and adaptive —
// and reports each mode's completion time and queue-operation latency. All
// modes must find the same optimal tour; the solves are independent
// simulations and fan out over e.Jobs workers.
func TSPAsyncQueue(e Env) ([]TSPAsyncRow, error) {
	opts := e.TSP.withDefaults()
	in := opts.instance()
	modes := append([]string{"off"}, tsp.AsyncQueueModes()...)
	return sweep(e, len(modes), func(i int) (TSPAsyncRow, error) {
		mode := modes[i]
		cfg := tsp.Config{
			Instance:         in,
			Searchers:        opts.Searchers,
			Org:              tsp.OrgCentralized,
			LockKind:         locks.KindBlocking,
			StepsPerWorkUnit: opts.StepsPerWorkUnit,
		}
		if mode != "off" {
			cfg.AsyncQueue = mode
		}
		res, err := tsp.Solve(cfg)
		if err != nil {
			return TSPAsyncRow{}, fmt.Errorf("tsp async-queue %s: %w", mode, err)
		}
		row := TSPAsyncRow{Mode: mode, Elapsed: res.Elapsed, Stats: res.QueueMonitor}
		if h := res.QueueLatency; h != nil {
			row.P50, row.P99, row.P999 = h.P50(), h.P99(), h.P999()
		}
		return row, nil
	})
}

// RenderTSPAsyncQueue renders the async-queue TSP comparison.
func RenderTSPAsyncQueue(rows []TSPAsyncRow) *metrics.Table {
	tb := metrics.NewTable("Centralized TSP: shared work queue by execution mode",
		"Queue mode", "elapsed (µs)", "queue p50 (µs)", "queue p99 (µs)", "queue p999 (µs)",
		"sync calls", "submits", "batches", "max batch")
	for _, r := range rows {
		p50, p99, p999 := "-", "-", "-"
		if r.Mode != "off" {
			p50, p99, p999 = us(r.P50), us(r.P99), us(r.P999)
		}
		tb.AddRow(r.Mode, us(r.Elapsed), p50, p99, p999,
			fmt.Sprintf("%d", r.Stats.SyncCalls), fmt.Sprintf("%d", r.Stats.Submits),
			fmt.Sprintf("%d", r.Stats.Batches), fmt.Sprintf("%d", r.Stats.MaxBatch))
	}
	return tb
}
