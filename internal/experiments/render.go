package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tsp"
)

// us renders a time the way the paper's microbenchmark tables do
// (microseconds with two decimals).
func us(t sim.Time) string {
	if t < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", t.Micros())
}

// ms renders a time the way the paper's application tables do
// (milliseconds, whole).
func ms(t sim.Time) string {
	return fmt.Sprintf("%.0f", t.Millis())
}

// RenderLockOpTable renders Table 4 or 5.
func RenderLockOpTable(title string, rows []LockOpRow) *metrics.Table {
	tb := metrics.NewTable(title, "Lock type", "local lock (µs)", "remote lock (µs)")
	for _, r := range rows {
		tb.AddRow(r.Kind, us(r.Local), us(r.Remote))
	}
	return tb
}

// RenderCycleTable renders Table 6 or 7.
func RenderCycleTable(title string, rows []CycleRow) *metrics.Table {
	tb := metrics.NewTable(title, "Configured as / Lock type", "local lock (µs)", "remote lock (µs)")
	for _, r := range rows {
		tb.AddRow(r.Kind, us(r.Local), us(r.Remote))
	}
	return tb
}

// RenderTable8 renders the configuration-operation cost table.
func RenderTable8(rows []ConfigOpRow) *metrics.Table {
	tb := metrics.NewTable("Table 8: Cost of Lock Configuration Operations",
		"Operation", "local lock (µs)", "remote lock (µs)")
	for _, r := range rows {
		tb.AddRow(r.Op, us(r.Local), us(r.Remote))
	}
	return tb
}

// RenderTSPRow renders one of Tables 1–3.
func RenderTSPRow(row TSPRow) *metrics.Table {
	var title string
	switch row.Org {
	case tsp.OrgCentralized:
		title = "Table 1: Performance of the Centralized Implementation"
	case tsp.OrgDistributed:
		title = "Table 2: Performance of the Distributed Implementation"
	default:
		title = "Table 3: Performance of the Distributed Implementation (with load balancing)"
	}
	if row.Sequential > 0 {
		tb := metrics.NewTable(title,
			"Sequential (ms)", "Blocking Lock (ms)", "Adaptive Lock (ms)", "Percentage Improvement")
		tb.AddRow(ms(row.Sequential), ms(row.Blocking), ms(row.Adaptive),
			fmt.Sprintf("%.1f%%", row.ImprovementPct))
		return tb
	}
	tb := metrics.NewTable(title,
		"Blocking Lock (ms)", "Adaptive Lock (ms)", "Percentage Improvement")
	tb.AddRow(ms(row.Blocking), ms(row.Adaptive), fmt.Sprintf("%.1f%%", row.ImprovementPct))
	return tb
}

// RenderPattern renders one locking-pattern figure as a sparkline plus
// summary statistics.
func RenderPattern(f PatternFigure, width int) string {
	s := f.Series
	return fmt.Sprintf("Figure %d: %q locking pattern, %s implementation\n"+
		"  requests=%d  mean-waiting=%.2f  max-waiting=%d  frac>0=%.0f%%\n"+
		"  |%s|\n",
		f.Figure, f.Lock, f.Org,
		s.Len(), s.Mean(), s.Max(), 100*s.FracAbove(0),
		s.Sparkline(width))
}

// RenderFigure1 renders the combined-lock sweep as a table (one row per
// critical-section length).
func RenderFigure1(rows []Figure1Row) *metrics.Table {
	tb := metrics.NewTable("Figure 1: Length of critical section vs. application execution time (ms)",
		"CS length", "pure-spin", "pure-block", "combined-1", "combined-10", "combined-50",
		"mutable", "cohort")
	for _, r := range rows {
		tb.AddRow(r.CSLength.String(),
			ms(r.Elapsed["pure-spin"]), ms(r.Elapsed["pure-block"]),
			ms(r.Elapsed["combined-1"]), ms(r.Elapsed["combined-10"]), ms(r.Elapsed["combined-50"]),
			ms(r.Elapsed["mutable"]), ms(r.Elapsed["cohort"]))
	}
	return tb
}

// RenderSchedulerComparison renders the FCFS/priority/handoff rows.
func RenderSchedulerComparison(rows []SchedRow) *metrics.Table {
	tb := metrics.NewTable("Lock scheduler comparison (client-server workload)",
		"Scheduler", "completion (ms)", "mean response (µs)", "peak backlog")
	for _, r := range rows {
		tb.AddRow(r.Scheduler, ms(r.Elapsed), us(r.MeanResponse), fmt.Sprint(r.QueuePeak))
	}
	return tb
}

// RenderCrossover renders the spin-vs-block multiprogramming sweep.
func RenderCrossover(rows []CrossoverRow) *metrics.Table {
	tb := metrics.NewTable("Spin vs. block across multiprogramming levels",
		"threads/processor", "pure-spin (ms)", "pure-block (ms)", "winner")
	for _, r := range rows {
		winner := "spin"
		if r.Block < r.Spin {
			winner = "block"
		}
		tb.AddRow(fmt.Sprint(r.ThreadsPerProc), ms(r.Spin), ms(r.Block), winner)
	}
	return tb
}

// RenderAdvisory renders the variable-length critical-section comparison.
func RenderAdvisory(rows []AdvisoryRow) *metrics.Table {
	tb := metrics.NewTable("Advisory lock under variable-length critical sections (90% 10µs, 10% 2ms)",
		"Strategy", "elapsed (ms)", "blocks", "spin iterations")
	for _, r := range rows {
		tb.AddRow(r.Strategy, ms(r.Elapsed), fmt.Sprint(r.Blocks), fmt.Sprint(r.Spins))
	}
	return tb
}

// RenderAblation renders the SimpleAdapt constant sweep.
func RenderAblation(rows []AblationRow) *metrics.Table {
	tb := metrics.NewTable("Adaptation-policy ablation: Waiting-Threshold × n",
		"Waiting-Threshold", "n (step)", "elapsed (ms)")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.WaitingThreshold), fmt.Sprint(r.Step), ms(r.Elapsed))
	}
	return tb
}

// RenderRetargeting renders the lock-representation ablation.
func RenderRetargeting(rows []RetargetRow) *metrics.Table {
	tb := metrics.NewTable("Lock representation re-targeting under memory-module contention",
		"contending threads", "remote-spin TAS (ms)", "local-spin MCS (ms)", "TAS hot-spot delay")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Threads), ms(r.RemoteSpin), ms(r.LocalSpin), r.HotSpotDelay.String())
	}
	return tb
}

// RenderCoupling renders the feedback-loop coupling comparison.
func RenderCoupling(rows []CouplingRow) *metrics.Table {
	tb := metrics.NewTable("Feedback-loop coupling: inline monitor vs. general-purpose thread monitor",
		"Loop structure", "elapsed (ms)", "decision lag", "trace drops")
	for _, r := range rows {
		tb.AddRow(r.Mode, ms(r.Elapsed), r.DecisionLag.String(), fmt.Sprint(r.Drops))
	}
	return tb
}

// RenderPlatforms renders the platform-retargeting sweep.
func RenderPlatforms(rows []PlatformRow) *metrics.Table {
	tb := metrics.NewTable("Re-targeting across platforms: spin vs. block as remote references get dearer",
		"Platform", "spin op remote (µs)", "block op remote (µs)", "spin (ms)", "block (ms)", "spin/block")
	for _, r := range rows {
		tb.AddRow(r.Platform, us(r.SpinOpRemote), us(r.BlockOpRemote),
			ms(r.SpinElapsed), ms(r.BlockElapsed), fmt.Sprintf("%.2f", r.SpinOverBlock))
	}
	return tb
}

// RenderScaling renders the gain-vs-processors sweep.
func RenderScaling(rows []ScalingRow) *metrics.Table {
	tb := metrics.NewTable("Adaptive-lock gain vs. processor count (centralized TSP)",
		"searchers", "blocking (ms)", "adaptive (ms)", "improvement")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Searchers), ms(r.Blocking), ms(r.Adaptive),
			fmt.Sprintf("%.1f%%", r.ImprovementPct))
	}
	return tb
}

// RenderSOR renders the massively-parallel SOR comparison.
func RenderSOR(rows []SORRow) *metrics.Table {
	tb := metrics.NewTable("SOR (massively parallel): blocking vs. adaptive residual lock",
		"workers", "blocking (ms)", "adaptive (ms)", "improvement", "sweeps")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Workers), ms(r.Blocking), ms(r.Adaptive),
			fmt.Sprintf("%.1f%%", r.ImprovementPct), fmt.Sprint(r.Sweeps))
	}
	return tb
}

// RenderBarriers renders the adaptive-barrier comparison.
func RenderBarriers(rows []BarrierRow) *metrics.Table {
	tb := metrics.NewTable("Adaptive barrier on SOR: waiting policy vs. scheduling regime",
		"Regime", "spin barrier (ms)", "sleep barrier (ms)", "adaptive barrier (ms)")
	for _, r := range rows {
		tb.AddRow(r.Regime, ms(r.Spin), ms(r.Sleep), ms(r.Adaptive))
	}
	return tb
}
