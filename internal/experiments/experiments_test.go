package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tsp"
)

// The assertions in this file check the *shapes* the paper reports — who
// wins, in what order, with crossovers in the right place — on scaled-down
// workloads. EXPERIMENTS.md records the full-size numbers.

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table 4 has %d rows, want 7", len(rows))
	}
	byKind := map[string]LockOpRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
		if r.Remote < r.Local {
			t.Errorf("Table 4 %s: remote (%v) < local (%v)", r.Kind, r.Remote, r.Local)
		}
	}
	// The mutable lock's uncontended acquire is spin-like: nowhere near the
	// blocking lock's. The cohort lock pays for its two-level acquisition
	// but still stays below blocking.
	if !(byKind["mutable lock"].Local < byKind["blocking-lock"].Local) {
		t.Error("Table 4: mutable lock's lock op should stay below blocking")
	}
	if !(byKind["cohort lock"].Local > byKind["spin-lock"].Local) {
		t.Error("Table 4: cohort lock's two-level lock op should cost more than the flat spin lock's")
	}
	// atomior < spin ≤ adaptive ≪ blocking (paper: 30.7 / 40.8 / 40.8 / 88.6).
	if !(byKind["atomior"].Local < byKind["spin-lock"].Local) {
		t.Error("Table 4: atomior not cheaper than spin-lock")
	}
	if !(byKind["spin-lock"].Local < byKind["blocking-lock"].Local) {
		t.Error("Table 4: spin-lock not cheaper than blocking-lock")
	}
	if !(byKind["adaptive lock"].Local < byKind["blocking-lock"].Local/2) {
		t.Error("Table 4: adaptive lock's lock op should be near the spin lock's, far below blocking")
	}
	// The adaptive lock op within ~25% of the spin lock's (paper: equal).
	if a, s := byKind["adaptive lock"].Local, byKind["spin-lock"].Local; a > s+s/4 {
		t.Errorf("Table 4: adaptive (%v) not close to spin (%v)", a, s)
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(Env{})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]LockOpRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
		if r.Remote < r.Local {
			t.Errorf("Table 5 %s: remote (%v) < local (%v)", r.Kind, r.Remote, r.Local)
		}
	}
	// spin ≪ adaptive < blocking (paper: 5.0 / 50.1 / 62.3).
	if !(byKind["spin-lock"].Local < byKind["adaptive lock"].Local/4) {
		t.Error("Table 5: spin unlock should be far below adaptive unlock")
	}
	if !(byKind["adaptive lock"].Local < byKind["blocking-lock"].Local) {
		t.Error("Table 5: adaptive unlock not cheaper than blocking unlock")
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := Table6(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table 6 has %d rows, want 3", len(rows))
	}
	spin, backoff, blocking := rows[0], rows[1], rows[2]
	// spin < backoff < blocking, locally and remotely (paper: 45/320/511).
	for _, pair := range []struct {
		a, b CycleRow
	}{{spin, backoff}, {backoff, blocking}} {
		if !(pair.a.Local < pair.b.Local) {
			t.Errorf("Table 6 local: %s (%v) not cheaper than %s (%v)", pair.a.Kind, pair.a.Local, pair.b.Kind, pair.b.Local)
		}
		if !(pair.a.Remote < pair.b.Remote) {
			t.Errorf("Table 6 remote: %s (%v) not cheaper than %s (%v)", pair.a.Kind, pair.a.Remote, pair.b.Kind, pair.b.Remote)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	opts := Env{}
	rows7, err := Table7(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows6, err := Table6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows7[0].Kind != "Spin" || rows7[1].Kind != "Blocking" {
		t.Fatalf("Table 7 rows = %v", rows7)
	}
	// Adaptive-as-spin cycle ≪ adaptive-as-blocking cycle (paper: 90/565).
	if !(rows7[0].Local < rows7[1].Local/2) {
		t.Errorf("Table 7: spin config (%v) not far below blocking config (%v)", rows7[0].Local, rows7[1].Local)
	}
	// Configurability costs: each adaptive configuration's cycle exceeds
	// the corresponding static lock's (paper: 90 > 45, 565 > 511).
	if !(rows7[0].Local > rows6[0].Local) {
		t.Errorf("Table 7 spin config (%v) not above static spin (%v)", rows7[0].Local, rows6[0].Local)
	}
	if !(rows7[1].Local > rows6[2].Local) {
		t.Errorf("Table 7 blocking config (%v) not above static blocking (%v)", rows7[1].Local, rows6[2].Local)
	}
}

func TestTable8Shape(t *testing.T) {
	rows, err := Table8(Env{})
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]ConfigOpRow{}
	for _, r := range rows {
		byOp[r.Op] = r
	}
	wait := byOp["configure(waiting policy)"]
	sched := byOp["configure(scheduler)"]
	acq := byOp["acquisition"]
	mon := byOp["monitor (one state variable)"]
	// waiting < scheduler < acquisition < monitor (paper: 9.9/12.5/30.8/66.0).
	if !(wait.Local < sched.Local && sched.Local < acq.Local && acq.Local < mon.Local) {
		t.Errorf("Table 8 local ordering broken: wait=%v sched=%v acq=%v mon=%v",
			wait.Local, sched.Local, acq.Local, mon.Local)
	}
	// Scheduler reconfiguration suffers more from remoteness than waiting-
	// policy reconfiguration (5 writes vs 1R1W; paper: +8.3µs vs +4.6µs).
	if !(sched.Remote-sched.Local > wait.Remote-wait.Local) {
		t.Errorf("Table 8: scheduler remote penalty (%v) not above waiting's (%v)",
			sched.Remote-sched.Local, wait.Remote-wait.Local)
	}
	if mon.Remote != -1 {
		t.Errorf("Table 8: monitor row should have no remote measurement, got %v", mon.Remote)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Two sweep points suffice for the paper's claims: at a short critical
	// section the 10-spin combined lock beats the 1-spin one while the
	// 50-spin one is worse than the 10-spin one; at a long critical
	// section pure spinning is catastrophic under multiprogramming.
	rows, err := Figure1(Env{}, []sim.Time{10 * sim.Microsecond, 500 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	short, long := rows[0].Elapsed, rows[1].Elapsed
	if !(short["combined-10"] < short["combined-1"]) {
		t.Errorf("Figure 1 @10µs: combined-10 (%v) not better than combined-1 (%v)",
			short["combined-10"], short["combined-1"])
	}
	if !(short["combined-50"] > short["combined-10"]) {
		t.Errorf("Figure 1 @10µs: combined-50 (%v) not worse than combined-10 (%v)",
			short["combined-50"], short["combined-10"])
	}
	if !(long["pure-spin"] > 2*long["pure-block"]) {
		t.Errorf("Figure 1 @500µs: spin (%v) not far worse than block (%v)",
			long["pure-spin"], long["pure-block"])
	}
}

func TestTSPComparisonShape(t *testing.T) {
	opts := TSPOptions{Cities: 14, Seed: 1}
	cen, err := TSPComparison(tsp.OrgCentralized, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive locks beat blocking locks (paper Table 1: 17.8%).
	if !(cen.Adaptive < cen.Blocking) {
		t.Errorf("centralized: adaptive (%v) not faster than blocking (%v)", cen.Adaptive, cen.Blocking)
	}
	// Parallel beats sequential (paper: 6.5× on 10 processors).
	if !(cen.Speedup > 2) {
		t.Errorf("centralized speedup = %.2f, want > 2", cen.Speedup)
	}
	dis, err := TSPComparison(tsp.OrgDistributed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(dis.Adaptive < dis.Blocking) {
		t.Errorf("distributed: adaptive (%v) not faster than blocking (%v)", dis.Adaptive, dis.Blocking)
	}
	// Distributed beats centralized under blocking locks (paper: 2973 vs
	// 3207 ms).
	if !(dis.Blocking < cen.Blocking) {
		t.Errorf("distributed blocking (%v) not faster than centralized (%v)", dis.Blocking, cen.Blocking)
	}
	lb, err := TSPComparison(tsp.OrgDistributedLB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(lb.Adaptive < lb.Blocking) {
		t.Errorf("distributed-lb: adaptive (%v) not faster than blocking (%v)", lb.Adaptive, lb.Blocking)
	}
	// The centralized organization gains the most from adaptive locks
	// (paper: 17.8% vs 12.7% and 6.5%).
	if !(cen.ImprovementPct > dis.ImprovementPct && cen.ImprovementPct > lb.ImprovementPct) {
		t.Errorf("improvements: cen=%.1f dis=%.1f lb=%.1f; centralized should gain most",
			cen.ImprovementPct, dis.ImprovementPct, lb.ImprovementPct)
	}
}

func TestLockPatternsShape(t *testing.T) {
	figs, err := LockPatterns(TSPOptions{Cities: 13, Seed: 1, StepsPerWorkUnit: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("%d figures, want 6", len(figs))
	}
	series := map[int]*PatternFigure{}
	for i := range figs {
		series[figs[i].Figure] = &figs[i]
		if figs[i].Series.Len() == 0 {
			t.Fatalf("figure %d: empty series", figs[i].Figure)
		}
	}
	// Figures 4 vs 6 vs 8: centralized qlock contention dominates the
	// distributed organizations'.
	cenQ := series[4].Series
	disQ := series[6].Series
	lbQ := series[8].Series
	if !(cenQ.Mean() > disQ.Mean() && cenQ.Mean() > lbQ.Mean()) {
		t.Errorf("qlock waiting means: cen=%.2f dis=%.2f lb=%.2f; centralized must dominate",
			cenQ.Mean(), disQ.Mean(), lbQ.Mean())
	}
	if !(cenQ.Max() >= disQ.Max()) {
		t.Errorf("qlock waiting max: cen=%d < dis=%d", cenQ.Max(), disQ.Max())
	}
}

func TestSchedulerComparisonShape(t *testing.T) {
	rows, err := SchedulerComparison(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SchedRow{}
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	// Priority best, FCFS worst ([MS93] via §2) — by an order of
	// magnitude in response time on this workload.
	if !(byName["priority"].MeanResponse < byName["fcfs"].MeanResponse/3) {
		t.Errorf("priority response (%v) not far below FCFS (%v)",
			byName["priority"].MeanResponse, byName["fcfs"].MeanResponse)
	}
	if !(byName["handoff"].MeanResponse < byName["fcfs"].MeanResponse) {
		t.Errorf("handoff response (%v) not below FCFS (%v)",
			byName["handoff"].MeanResponse, byName["fcfs"].MeanResponse)
	}
}

func TestSpinVsBlockCrossoverShape(t *testing.T) {
	rows, err := SpinVsBlockCrossover(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ThreadsPerProc != 1 || rows[len(rows)-1].ThreadsPerProc != 4 {
		t.Fatalf("unexpected sweep: %+v", rows)
	}
	// [MS93] §2: spin wins with threads == processors, blocking wins when
	// multiprogrammed.
	if !(rows[0].Spin < rows[0].Block) {
		t.Errorf("1 thread/proc: spin (%v) not faster than block (%v)", rows[0].Spin, rows[0].Block)
	}
	last := rows[len(rows)-1]
	if !(last.Block < last.Spin) {
		t.Errorf("4 threads/proc: block (%v) not faster than spin (%v)", last.Block, last.Spin)
	}
}

func TestPolicyAblationRuns(t *testing.T) {
	rows, err := PolicyAblation(Env{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d ablation rows, want 9", len(rows))
	}
	first := rows[0].Elapsed
	allSame := true
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Fatalf("ablation t=%d n=%d: no time elapsed", r.WaitingThreshold, r.Step)
		}
		if r.Elapsed != first {
			allSame = false
		}
	}
	if allSame {
		t.Error("ablation: all (threshold, step) pairs identical — the constants have no effect")
	}
}

func TestAdvisoryComparisonShape(t *testing.T) {
	rows, err := AdvisoryComparison(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]sim.Time{}
	for _, r := range rows {
		byName[r.Strategy] = r.Elapsed
	}
	adv := byName["advisory"]
	// The advisory lock performs well for variable-length critical
	// sections ([MS93] via §2): it beats every fixed waiting policy here.
	for _, other := range []string{"pure-spin", "pure-block", "combined-10"} {
		if adv >= byName[other] {
			t.Errorf("advisory (%v) not better than %s (%v)", adv, other, byName[other])
		}
	}
}

func TestLockRetargetingShape(t *testing.T) {
	rows, err := LockRetargeting(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Threads != 2 || last.Threads != 16 {
		t.Fatalf("unexpected sweep: %+v", rows)
	}
	// At low contention the representations are equivalent (within 10%).
	diff := first.RemoteSpin - first.LocalSpin
	if diff < 0 {
		diff = -diff
	}
	if diff*10 > first.RemoteSpin {
		t.Errorf("2 threads: remote-spin %v and local-spin %v differ by >10%%", first.RemoteSpin, first.LocalSpin)
	}
	// At high contention the local-spin representation wins and the TAS
	// lock's module shows a hot spot.
	if !(last.LocalSpin < last.RemoteSpin) {
		t.Errorf("16 threads: local-spin (%v) not faster than remote-spin (%v)", last.LocalSpin, last.RemoteSpin)
	}
	if !(last.HotSpotDelay > 100*first.HotSpotDelay) {
		t.Errorf("hot-spot delay did not explode with contention: %v → %v", first.HotSpotDelay, last.HotSpotDelay)
	}
}

func TestMutableCalibrationShape(t *testing.T) {
	rows, err := MutableCalibration(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Waiters != 2 || rows[2].Waiters != 32 {
		t.Fatalf("unexpected sweep: %+v", rows)
	}
	for _, r := range rows {
		if r.Spin+r.SpinBlock+r.Block+r.Cold == 0 {
			t.Errorf("%d waiters: no contended arrivals classified", r.Waiters)
		}
	}
	// At 2 waiters the predicted wait (≈ one 20µs hold) sits well below the
	// GP1000 block cost, so the predictor spins; at 32 waiters the queue
	// term pushes predictions past the spin-then-block threshold.
	if rows[0].Spin == 0 {
		t.Errorf("2 waiters: no spin decisions: %+v", rows[0])
	}
	if rows[2].Block == 0 {
		t.Errorf("32 waiters: no block decisions: %+v", rows[2])
	}
	// The calibration record must carry real predicted-vs-actual pairs.
	last := rows[2]
	if last.MeanPredicted <= 0 || last.MeanActual <= 0 {
		t.Errorf("32 waiters: empty calibration record: %+v", last)
	}
}

func TestCohortNUMAShape(t *testing.T) {
	rows, err := CohortNUMA(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Nodes != 2 || rows[2].Nodes != 8 {
		t.Fatalf("unexpected sweep: %+v", rows)
	}
	for _, r := range rows {
		// The headline: cohorting keeps consecutive acquisitions on the
		// releasing node, so the lock crosses nodes far less often than
		// under the node-oblivious representations.
		if !(r.CohortRemote*2 < r.SpinRemote) {
			t.Errorf("%d nodes: cohort remote transfers (%d) not well below spin's (%d)",
				r.Nodes, r.CohortRemote, r.SpinRemote)
		}
		if !(r.CohortRemote*2 < r.MCSRemote) {
			t.Errorf("%d nodes: cohort remote transfers (%d) not well below MCS's (%d)",
				r.Nodes, r.CohortRemote, r.MCSRemote)
		}
		if r.LocalHandoffs == 0 {
			t.Errorf("%d nodes: no intra-node handoffs", r.Nodes)
		}
	}
}

func TestCouplingComparisonShape(t *testing.T) {
	rows, err := CouplingComparison(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	tight, loose := rows[0], rows[1]
	if tight.DecisionLag != 0 {
		t.Errorf("closely-coupled lag = %v, want 0 (samples consumed in the probing context)", tight.DecisionLag)
	}
	// The loose loop's reaction time is bounded below by the trace
	// pipeline (§3's adaptation-lag discussion; §5.1's "too loosely
	// coupled").
	if loose.DecisionLag < 500*sim.Microsecond {
		t.Errorf("loosely-coupled lag = %v, want ≥ 500µs", loose.DecisionLag)
	}
	// Both loops run the same policy on the same workload, so their
	// end-to-end times stay comparable (within 20%) — the looseness is a
	// responsiveness bound, not a throughput collapse, at this phase
	// length.
	ratio := float64(loose.Elapsed) / float64(tight.Elapsed)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("elapsed ratio loose/tight = %.2f, want within [0.8, 1.2]", ratio)
	}
}

func TestPlatformRetargetingShape(t *testing.T) {
	rows, err := PlatformRetargeting(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	uma, numa, norma := rows[0], rows[1], rows[2]
	// Remote lock operations get dearer as the platform's remote penalty
	// grows.
	if !(uma.SpinOpRemote < numa.SpinOpRemote && numa.SpinOpRemote < norma.SpinOpRemote) {
		t.Errorf("spin op costs not increasing: %v / %v / %v",
			uma.SpinOpRemote, numa.SpinOpRemote, norma.SpinOpRemote)
	}
	// Spinning's relative advantage over blocking shrinks from UMA to
	// NORMA (§2: re-targeting changes the preferred configuration).
	if !(norma.SpinOverBlock > uma.SpinOverBlock+0.05) {
		t.Errorf("spin/block ratio did not shift toward blocking: UMA %.2f vs NORMA %.2f",
			uma.SpinOverBlock, norma.SpinOverBlock)
	}
}

func TestSchedulerAdaptationConverges(t *testing.T) {
	rows, err := SchedulerComparison(Env{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SchedRow{}
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	adaptive, ok := byName["adaptive"]
	if !ok {
		t.Fatal("no adaptive-scheduler row")
	}
	// Starting from FCFS, the scheduler-adaptation policy must converge to
	// within 2× of the statically priority-scheduled lock's response time
	// — far from FCFS's unbounded backlog.
	if !(adaptive.MeanResponse < 2*byName["priority"].MeanResponse) {
		t.Errorf("adaptive response (%v) not within 2× of priority (%v)",
			adaptive.MeanResponse, byName["priority"].MeanResponse)
	}
	if !(adaptive.MeanResponse < byName["fcfs"].MeanResponse/10) {
		t.Errorf("adaptive response (%v) not far below FCFS (%v)",
			adaptive.MeanResponse, byName["fcfs"].MeanResponse)
	}
}

func TestScalingComparisonShape(t *testing.T) {
	rows, err := ScalingComparison(TSPOptions{Cities: 14, Seed: 1, Jobs: 2}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// §4's prediction: the adaptive lock's gain grows with the processor
	// count, because the spinning-vs-blocking effect is more pronounced.
	if !(rows[1].ImprovementPct > rows[0].ImprovementPct) {
		t.Errorf("improvement at 16 searchers (%.1f%%) not above 4 searchers (%.1f%%)",
			rows[1].ImprovementPct, rows[0].ImprovementPct)
	}
}

func TestSORComparisonShape(t *testing.T) {
	rows, err := SORComparison([]int{8, 24}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.Adaptive < r.Blocking) {
			t.Errorf("%d workers: adaptive (%v) not faster than blocking (%v)", r.Workers, r.Adaptive, r.Blocking)
		}
	}
	// The gain grows with the degree of parallelism (§4's prediction, on
	// a second application with a bursty locking pattern).
	if !(rows[1].ImprovementPct > rows[0].ImprovementPct) {
		t.Errorf("improvement at 24 workers (%.1f%%) not above 8 workers (%.1f%%)",
			rows[1].ImprovementPct, rows[0].ImprovementPct)
	}
}

func TestBarrierComparisonShape(t *testing.T) {
	rows, err := BarrierComparison(Env{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	private, shared := rows[0], rows[1]
	// Private processors: spinning is right; the adaptive barrier must be
	// within 10% of the spin barrier and far below the sleeping one.
	if !(private.Adaptive < private.Spin+private.Spin/10) {
		t.Errorf("private: adaptive (%v) not within 10%% of spin (%v)", private.Adaptive, private.Spin)
	}
	if !(private.Adaptive < private.Sleep*3/4) {
		t.Errorf("private: adaptive (%v) not well below sleep (%v)", private.Adaptive, private.Sleep)
	}
	// Multiprogrammed: the adaptive grace-then-sleep beats both statics.
	if !(shared.Adaptive < shared.Spin && shared.Adaptive < shared.Sleep) {
		t.Errorf("shared: adaptive (%v) not best (spin %v, sleep %v)", shared.Adaptive, shared.Spin, shared.Sleep)
	}
}
