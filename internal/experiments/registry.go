package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tsp"
)

// Env is everything one run of the experiment driver configures. Zero
// fields take each experiment's defaults; a Spec only ever sees the
// fields its Reads declares (see Restrict).
type Env struct {
	// Machine is the simulated multiprocessor (-procs fills Nodes).
	Machine sim.Config
	// Jobs is the fan-out for independent simulations: each runs on its
	// own engine, so up to Jobs (capped at GOMAXPROCS) run concurrently
	// while results keep their input order. 0 or 1 is serial, and so is
	// every sweep of an Env with an observer attached (see sweep).
	Jobs int
	// Tracer, when non-nil, is attached to every observed system; the
	// microbenchmarks run many short simulations, so their events share
	// one virtual timeline restarting at zero per measurement.
	Tracer *trace.Tracer
	// Profiler, when non-nil, collects the exact virtual-time attribution
	// of every observed system's threads.
	Profiler *profile.Profiler
	// Ledger, when non-nil, records every adaptation decision the
	// observed systems' adaptive objects make.
	Ledger *core.Ledger
	// Iters is how many times each microbenchmark operation is repeated
	// and averaged (default 16).
	Iters int
	// Kinds, when non-empty, restricts Tables 4 and 5 and the wait-latency
	// sweep to these lock kinds; empty means the full row set.
	Kinds []locks.Kind
	// TSP holds the TSP instance options (Instance, Cities, Seed,
	// Searchers, Uniform, StepsPerWorkUnit). Its Profiler, Ledger and Jobs
	// fields serve only the TSPComparison entry point; on this path Env's
	// own observers and Jobs apply.
	TSP TSPOptions
	// CSVDir, when set, receives each locking-pattern figure's series as
	// CSV.
	CSVDir string
}

// Input is a set of Env fields a Spec reads.
type Input uint

// The Env inputs, one per group of driver flags.
const (
	InMachine Input = 1 << iota // Machine (-procs)
	InIters                     // Iters (-iters)
	InKinds                     // Kinds (-lock)
	InTSP                       // TSP (-seed -cities -searchers -uniform -steps -file)
	InCSV                       // CSVDir (-csvdir)
	InTrace                     // Tracer (-trace and its options)
	InObserve                   // Profiler and Ledger (-profile-vt, -ledger)
)

// Restrict returns e with every field outside in zeroed (Jobs always
// passes), so an input set for one selected experiment cannot leak into
// another that does not declare it.
func (e Env) Restrict(in Input) Env {
	r := Env{Jobs: e.Jobs}
	if in&InMachine != 0 {
		r.Machine = e.Machine
	}
	if in&InIters != 0 {
		r.Iters = e.Iters
	}
	if in&InKinds != 0 {
		r.Kinds = e.Kinds
	}
	if in&InTSP != 0 {
		r.TSP = e.TSP
	}
	if in&InCSV != 0 {
		r.CSVDir = e.CSVDir
	}
	if in&InTrace != 0 {
		r.Tracer = e.Tracer
	}
	if in&InObserve != 0 {
		r.Profiler, r.Ledger = e.Profiler, e.Ledger
	}
	return r
}

// observed reports whether any observer is attached; observed sweeps run
// serially so all events land on one coherent shared collector.
func (e Env) observed() bool {
	return e.Tracer != nil || e.Profiler != nil || e.Ledger != nil
}

// attach installs the configured observers on a measured system.
func (e Env) attach(sys *cthreads.System) {
	sys.SetTracer(e.Tracer)
	sys.SetProfiler(e.Profiler)
	sys.SetLedger(e.Ledger)
}

// Spec is one registered experiment.
type Spec struct {
	// Name selects the experiment on the cmd/repro command line.
	Name string
	// Claim is the paper claim (or extension question) the experiment
	// reproduces, as DESIGN.md §3 indexes it.
	Claim string
	// Reads declares the Env inputs Run consumes beyond Jobs.
	Reads Input
	// Run executes the experiment.
	Run func(Env) (Result, error)
}

// Result is one experiment's output.
type Result struct {
	// Text is the rendered output, ending in a blank line.
	Text string
	// Metrics are the named quantities the root benchmarks report.
	Metrics []Metric
}

// Metric is one named benchmark quantity.
type Metric struct {
	Name  string
	Value float64
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// tabulate adapts a sweep and its renderer into a Spec's Run: the text is
// the rendered table plus a blank line, and the metrics are whatever
// metrics derives from the rows (none when it is nil).
func tabulate[R any, T fmt.Stringer](run func(Env) (R, error), render func(R) T, metrics func(R) []Metric) func(Env) (Result, error) {
	return func(e Env) (Result, error) {
		rows, err := run(e)
		if err != nil {
			return Result{}, err
		}
		res := Result{Text: render(rows).String() + "\n"}
		if metrics != nil {
			res.Metrics = metrics(rows)
		}
		return res, nil
	}
}

// titled adapts a renderer that takes its table title.
func titled[R any](title string, render func(string, R) *metrics.Table) func(R) *metrics.Table {
	return func(rows R) *metrics.Table { return render(title, rows) }
}

// each reports one metric per row.
func each[R any](metric func(R) Metric) func([]R) []Metric {
	return func(rows []R) []Metric {
		m := make([]Metric, len(rows))
		for i, r := range rows {
			m[i] = metric(r)
		}
		return m
	}
}

// localMicros reports a row's local latency as sim-µs-<label>-local.
func localMicros(label string, local sim.Time) Metric {
	return Metric{"sim-µs-" + metricName(label) + "-local", local.Micros()}
}

// metricName flattens a label into a benchmark-metric-safe token.
func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ' || r == '-' || r == '(' || r == ')':
			if len(out) > 0 && out[len(out)-1] != '-' {
				out = append(out, '-')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}

const (
	lockInputs = InMachine | InIters | InTrace | InObserve
	tspInputs  = InTSP | InTrace | InObserve
)

// Registry lists every experiment, grouped by subject: the TSP
// application (Tables 1–3, Figures 4–9, and their extensions), the lock
// microbenchmarks (Tables 4–8 and theirs), Figure 1, then the remaining
// extensions. It is built per call rather than held in a variable, so a binary that
// only imports this package's cell-level entry points does not link
// every experiment.
func Registry() []Spec {
	lockOpMetrics := each(func(r LockOpRow) Metric { return localMicros(r.Kind, r.Local) })
	cycleMetrics := each(func(r CycleRow) Metric { return localMicros(r.Kind, r.Local) })
	return []Spec{
		{"table1", "Centralized TSP: adaptive lock ~17.8% faster than blocking; parallel ≫ sequential",
			tspInputs, tspTable(tsp.OrgCentralized)},
		{"table2", "Distributed TSP: adaptive ~12.7% better",
			tspInputs, tspTable(tsp.OrgDistributed)},
		{"table3", "Distributed+LB TSP: adaptive ~6.5% better (least gain — least synchronization)",
			tspInputs, tspTable(tsp.OrgDistributedLB)},
		{"patterns", "Figures 4–9, qlock contention: centralized ≫ distributed ≫ distributed+LB; glob-act-lock moderate",
			InTSP | InCSV, patterns},
		{"scaling", "§4's prediction: the adaptive lock's gain over blocking grows with the processor count",
			tspInputs, tabulate(func(e Env) ([]ScalingRow, error) { return ScalingComparison(e, nil) }, RenderScaling,
				each(func(r ScalingRow) Metric {
					return Metric{fmt.Sprintf("improvement-%%-%dp", r.Searchers), r.ImprovementPct}
				}))},
		{"async-queue", "Centralized TSP's shared work queue through the adaptive monitor: every execution mode finds the same tour, combining cuts queue latency",
			InTSP, tabulate(TSPAsyncQueue, RenderTSPAsyncQueue, nil)},
		{"table4", "Lock-op latency ordering: atomior < spin ≈ backoff ≈ adaptive < blocking; remote ≥ local",
			lockInputs | InKinds, tabulate(Table4, titled("Table 4: Cost of the Lock operation for different locks", RenderLockOpTable), lockOpMetrics)},
		{"table5", "Unlock latency: spin ≈ backoff ≪ adaptive < blocking",
			lockInputs | InKinds, tabulate(Table5, titled("Table 5: Cost of the Unlock operation for different locks", RenderLockOpTable), lockOpMetrics)},
		{"table6", "Locking-cycle (unlock→lock on busy lock): spin ≪ backoff ≪ blocking",
			lockInputs, tabulate(Table6, titled("Table 6: Cost of successive Unlock and Lock operation on an already locked lock", RenderCycleTable), cycleMetrics)},
		{"table7", "Adaptive lock cycle: as-spin ≈ spin (+ small overhead), as-blocking ≈ blocking (+ overhead)",
			lockInputs, tabulate(Table7, titled("Table 7: Cost of successive Unlock and Lock operation on an already locked adaptive lock", RenderCycleTable), cycleMetrics)},
		{"table8", "Cost of adaptation mechanisms: configure(waiting) < configure(scheduler) < acquisition < monitor-sample",
			lockInputs, tabulate(Table8, RenderTable8, each(func(r ConfigOpRow) Metric { return localMicros(r.Op, r.Local) }))},
		{"calib", "The mutable lock's wait predictor classifies right at both ends: spin at 2 waiters, block at 8+",
			InMachine, tabulate(MutableCalibration, RenderMutableCalibration, nil)},
		{"wait-latency", "Per-acquisition wait-latency digests (p50/p99/p999) per lock kind under contention",
			InMachine | InKinds, tabulate(WaitLatencySweep, RenderWaitLatency, nil)},
		{"fig1", "Figure 1: combined lock with 10 initial spins beats 1-spin for some CS lengths; 50-spin worse than 10-spin at those lengths; optimum depends on CS length",
			InObserve, tabulate(func(e Env) ([]Figure1Row, error) { return Figure1(e, nil) }, RenderFigure1, figure1Metrics)},
		{"sched", "[MS93]: priority scheduler best, FCFS worst on a client-server program; a lock adapting its own scheduler tracks priority",
			0, tabulate(SchedulerComparison, RenderSchedulerComparison,
				each(func(r SchedRow) Metric { return Metric{"sim-µs-response-" + r.Scheduler, r.MeanResponse.Micros()} }))},
		{"crossover", "[MS93] §2: spin wins at one thread per processor, blocking wins beyond",
			0, tabulate(SpinVsBlockCrossover, RenderCrossover, func(rows []CrossoverRow) []Metric {
				first, last := rows[0], rows[len(rows)-1]
				return []Metric{
					{"spin/block@1tpp", float64(first.Spin) / float64(first.Block)},
					{"spin/block@4tpp", float64(last.Spin) / float64(last.Block)},
				}
			})},
		{"advisory", "[MS93] via §2: an advisory lock performs well for variable-length critical sections",
			0, tabulate(AdvisoryComparison, RenderAdvisory,
				each(func(r AdvisoryRow) Metric { return Metric{"sim-ms-" + metricName(r.Strategy), r.Elapsed.Millis()} }))},
		{"retarget", "§2 re-targeting: a distributed local-spin lock keeps the lock word's memory module quiet where a centralized TAS lock floods it",
			0, tabulate(LockRetargeting, RenderRetargeting, func(rows []RetargetRow) []Metric {
				last := rows[len(rows)-1]
				return []Metric{
					{"sim-ms-remote-spin-16t", last.RemoteSpin.Millis()},
					{"sim-ms-local-spin-16t", last.LocalSpin.Millis()},
					{"sim-ms-hotspot-delay-16t", last.HotSpotDelay.Millis()},
				}
			})},
		{"cohort", "A NUMA cohort lock cuts remote lock transfers versus the flat TAS and MCS locks",
			0, tabulate(CohortNUMA, RenderCohortNUMA, nil)},
		{"coupling", "§3/§5.1: the inline feedback loop reacts without lag; the general-purpose monitor pipeline decides a phase late",
			InTrace | InObserve, tabulate(CouplingComparison, RenderCoupling, func(rows []CouplingRow) []Metric {
				return []Metric{
					{"sim-ms-closely-coupled", rows[0].Elapsed.Millis()},
					{"sim-ms-loosely-coupled", rows[1].Elapsed.Millis()},
					{"sim-µs-decision-lag", rows[1].DecisionLag.Micros()},
				}
			})},
		{"platform", "§2 UMA → NUMA → NORMA: busy waiting loses its edge as remote references get dearer",
			0, tabulate(PlatformRetargeting, RenderPlatforms,
				each(func(r PlatformRow) Metric { return Metric{"spin/block-" + metricName(r.Platform), r.SpinOverBlock} }))},
		{"sor", "§7 follow-on: the adaptive residual lock's gain on SOR grows with the worker count",
			0, tabulate(func(e Env) ([]SORRow, error) { return SORComparison(e, nil) }, RenderSOR,
				each(func(r SORRow) Metric { return Metric{fmt.Sprintf("improvement-%%-%dw", r.Workers), r.ImprovementPct} }))},
		{"barrier", "§7: an adaptive barrier polls like a spin barrier on private processors and beats both static barriers when multiprogrammed",
			0, tabulate(BarrierComparison, RenderBarriers, func(rows []BarrierRow) (m []Metric) {
				for _, r := range rows {
					regime := metricName(r.Regime)
					m = append(m,
						Metric{"sim-ms-adaptive-" + regime, r.Adaptive.Millis()},
						Metric{"sim-ms-spin-" + regime, r.Spin.Millis()},
						Metric{"sim-ms-sleep-" + regime, r.Sleep.Millis()})
				}
				return m
			})},
		{"ablation", "The SimpleAdapt constants the paper leaves to future work (Waiting-Threshold, n) move the adaptive lock's execution time",
			0, tabulate(PolicyAblation, RenderAblation, func(rows []AblationRow) []Metric {
				best := rows[0]
				for _, r := range rows {
					if r.Elapsed < best.Elapsed {
						best = r
					}
				}
				return []Metric{
					{"best-threshold", float64(best.WaitingThreshold)},
					{"best-n", float64(best.Step)},
					{"sim-ms-best", best.Elapsed.Millis()},
				}
			})},
		{"sharded", "The sharded engine simulates an identical history at every shard count",
			0, func(e Env) (Result, error) {
				shards := []int{1, 2, 4, 8}
				rows, err := sweep(e, len(shards), func(i int) (ShardedRow, error) {
					return ShardedRun(sim.Config{}, shards[i], 0, 0)
				})
				if err != nil {
					return Result{}, err
				}
				return Result{Text: RenderShardedScaling(rows) + "\n"}, nil
			}},
		{"feedback", "§4's feedback loop: the adaptive lock spins when solo, backs off to blocking under overload, and climbs back",
			InMachine | InTrace | InObserve, feedback},
		{"monitor", "Combining cuts the contended hotspot's p99 method latency; the adaptive monitor switches sync→async and back with the phase",
			InMachine, func(e Env) (Result, error) {
				if e.Machine.Nodes == 0 {
					e.Machine.Nodes = 8
				}
				hot, err := MonitorHotspot(e)
				if err != nil {
					return Result{}, err
				}
				rep, err := MonitorPhases(e.Machine)
				if err != nil {
					return Result{}, err
				}
				return Result{Text: RenderMonitorHotspot(hot).String() + "\n" + RenderMonitorPhases(rep).String() + "\n"}, nil
			}},
	}
}

// tspTable runs one of Tables 1–3 and prints the instance, the table, and
// the solve details behind it.
func tspTable(org tsp.Organization) func(Env) (Result, error) {
	return func(e Env) (Result, error) {
		row, err := tspComparison(e, org, org == tsp.OrgCentralized)
		if err != nil {
			return Result{}, err
		}
		opts := e.TSP.withDefaults()
		var label string
		switch {
		case opts.Instance != nil:
			label = opts.Instance.String()
		case opts.Uniform:
			label = fmt.Sprintf("uniform(n=%d, seed=%d)", opts.Cities, opts.Seed)
		default:
			label = fmt.Sprintf("euclidean(n=%d, seed=%d)", opts.Cities, opts.Seed)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "instance: %s, %d searchers\n\n%s\n", label, opts.Searchers, RenderTSPRow(row))
		var m []Metric
		if row.Speedup > 0 {
			fmt.Fprintf(&b, "  speedup over sequential: %.1f× on %d processors\n", row.Speedup, opts.Searchers)
			m = append(m, Metric{"sim-ms-sequential", row.Sequential.Millis()}, Metric{"speedup", row.Speedup})
		}
		fmt.Fprintf(&b, "  optimal tour cost: %d; expansions: blocking=%d adaptive=%d\n",
			row.BlockingRes.Tour.Cost, row.BlockingRes.Expansions, row.AdaptiveRes.Expansions)
		q := row.BlockingRes.LockStats[tsp.LockQueue]
		fmt.Fprintf(&b, "  qlock (blocking run): %d acquisitions, %d contended, max %d waiting\n",
			q.Acquisitions, q.Contended, q.MaxWaiting)
		if len(row.AdaptiveRes.FinalSpin) > 0 {
			b.WriteString("  adaptive final spin-time:")
			for _, name := range []string{tsp.LockQueue, tsp.LockActive, tsp.LockLowest, tsp.LockGlobal} {
				if v, ok := row.AdaptiveRes.FinalSpin[name]; ok {
					fmt.Fprintf(&b, " %s=%d", name, v)
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
		m = append(m,
			Metric{"sim-ms-blocking", row.Blocking.Millis()},
			Metric{"sim-ms-adaptive", row.Adaptive.Millis()},
			Metric{"improvement-%", row.ImprovementPct})
		return Result{Text: b.String(), Metrics: m}, nil
	}
}

// patterns renders Figures 4–9, writing each series as CSV into CSVDir
// when it is set, and reports the three qlock figures' mean waiting
// counts.
func patterns(e Env) (Result, error) {
	figs, err := LockPatterns(e)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(RenderPattern(f, 72))
		if f.Lock == tsp.LockQueue {
			res.Metrics = append(res.Metrics, Metric{metricName(string(f.Org)) + "-qlock-mean-waiting", f.Series.Mean()})
		}
		if e.CSVDir == "" {
			continue
		}
		path := filepath.Join(e.CSVDir, fmt.Sprintf("figure%d_%s_%s.csv", f.Figure, f.Org, f.Lock))
		if err := writeCSV(path, f.Series); err != nil {
			return Result{}, err
		}
		fmt.Fprintf(&b, "  wrote %s\n", path)
	}
	res.Text = b.String()
	return res, nil
}

func writeCSV(path string, s *metrics.Series) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.WriteCSV(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// figure1Metrics reports the execution-time ratio of the 10-spin combined
// lock to the 1-spin one (below 1.0 reproduces the paper's headline) and
// of the 50-spin to the 10-spin one at a 10µs critical section, plus the
// spin/block ratio at 500µs.
func figure1Metrics(rows []Figure1Row) []Metric {
	at := func(cs sim.Time) map[string]sim.Time {
		for _, r := range rows {
			if r.CSLength == cs {
				return r.Elapsed
			}
		}
		panic(fmt.Sprintf("experiments: Figure 1 has no %v row", cs))
	}
	at10, at500 := at(10*sim.Microsecond), at(500*sim.Microsecond)
	return []Metric{
		{"c10/c1@10µs", float64(at10["combined-10"]) / float64(at10["combined-1"])},
		{"c50/c10@10µs", float64(at10["combined-50"]) / float64(at10["combined-10"])},
		{"spin/block@500µs", float64(at500["pure-spin"]) / float64(at500["pure-block"])},
	}
}
