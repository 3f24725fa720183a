package experiments

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tsp"
)

func TestRenderLockOpTable(t *testing.T) {
	out := RenderLockOpTable("Table 4", []LockOpRow{
		{Kind: "atomior", Local: 30700, Remote: 32500},
	}).String()
	for _, want := range []string{"Table 4", "atomior", "30.70", "32.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable8NegativeRemote(t *testing.T) {
	out := RenderTable8([]ConfigOpRow{
		{Op: "monitor (one state variable)", Local: 65600, Remote: -1},
	}).String()
	if !strings.Contains(out, "-") {
		t.Errorf("missing '-' for absent remote measurement:\n%s", out)
	}
}

func TestRenderTSPRowWithAndWithoutSequential(t *testing.T) {
	with := RenderTSPRow(TSPRow{
		Org:        tsp.OrgCentralized,
		Sequential: 20666 * sim.Millisecond,
		Blocking:   3207 * sim.Millisecond,
		Adaptive:   2636 * sim.Millisecond,

		ImprovementPct: 17.8,
	}).String()
	for _, want := range []string{"Table 1", "20666", "3207", "2636", "17.8%"} {
		if !strings.Contains(with, want) {
			t.Errorf("render missing %q:\n%s", want, with)
		}
	}
	without := RenderTSPRow(TSPRow{Org: tsp.OrgDistributed, Blocking: 2973 * sim.Millisecond, Adaptive: 2596 * sim.Millisecond, ImprovementPct: 12.7}).String()
	if strings.Contains(without, "Sequential") {
		t.Errorf("distributed table should have no sequential column:\n%s", without)
	}
	if !strings.Contains(without, "Table 2") {
		t.Errorf("wrong title:\n%s", without)
	}
	lb := RenderTSPRow(TSPRow{Org: tsp.OrgDistributedLB}).String()
	if !strings.Contains(lb, "Table 3") {
		t.Errorf("wrong LB title:\n%s", lb)
	}
}

func TestRenderPattern(t *testing.T) {
	s := metrics.NewSeries("qlock")
	for i := 0; i < 20; i++ {
		s.Add(sim.Time(i*100), int64(i%5))
	}
	out := RenderPattern(PatternFigure{Figure: 4, Org: tsp.OrgCentralized, Lock: "qlock", Series: s}, 16)
	for _, want := range []string{"Figure 4", "qlock", "centralized", "requests=20"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigure1(t *testing.T) {
	out := RenderFigure1([]Figure1Row{{
		CSLength: 10 * sim.Microsecond,
		Elapsed: map[string]sim.Time{
			"pure-spin": 86 * sim.Millisecond, "pure-block": 60 * sim.Millisecond,
			"combined-1": 56 * sim.Millisecond, "combined-10": 51 * sim.Millisecond,
			"combined-50": 54 * sim.Millisecond,
		},
	}}).String()
	for _, want := range []string{"Figure 1", "10.00µs", "86", "51"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderExtensionsTables(t *testing.T) {
	outs := []string{
		RenderSchedulerComparison([]SchedRow{{Scheduler: "fcfs", Elapsed: 55 * sim.Millisecond, MeanResponse: 24051 * sim.Microsecond, QueuePeak: 176}}).String(),
		RenderCrossover([]CrossoverRow{{ThreadsPerProc: 1, Spin: 13 * sim.Millisecond, Block: 22 * sim.Millisecond}, {ThreadsPerProc: 4, Spin: 152 * sim.Millisecond, Block: 76 * sim.Millisecond}}).String(),
		RenderAdvisory([]AdvisoryRow{{Strategy: "advisory", Elapsed: 184 * sim.Millisecond, Blocks: 529, Spins: 12927}}).String(),
		RenderAblation([]AblationRow{{WaitingThreshold: 6, Step: 25, Elapsed: 53 * sim.Millisecond}}).String(),
		RenderRetargeting([]RetargetRow{{Threads: 16, RemoteSpin: 10 * sim.Millisecond, LocalSpin: 9 * sim.Millisecond, HotSpotDelay: 43 * sim.Millisecond}}).String(),
		RenderPlatforms([]PlatformRow{{Platform: "UMA", SpinOpRemote: 37700, BlockOpRemote: 86700, SpinElapsed: 27 * sim.Millisecond, BlockElapsed: 35 * sim.Millisecond, SpinOverBlock: 0.79}}).String(),
		RenderCoupling([]CouplingRow{{Mode: "closely-coupled (inline)", Elapsed: 281 * sim.Millisecond}}).String(),
		RenderScaling([]ScalingRow{{Searchers: 16, Blocking: 548 * sim.Millisecond, Adaptive: 299 * sim.Millisecond, ImprovementPct: 45.4}}).String(),
		RenderSOR([]SORRow{{Workers: 24, Blocking: 2924 * sim.Millisecond, Adaptive: 1875 * sim.Millisecond, ImprovementPct: 35.9, Sweeps: 502}}).String(),
		RenderBarriers([]BarrierRow{{Regime: "2 workers/processor", Spin: 339 * sim.Millisecond, Sleep: 353 * sim.Millisecond, Adaptive: 294 * sim.Millisecond}}).String(),
	}
	wants := [][]string{
		{"fcfs", "176"},
		{"winner", "spin", "block"},
		{"advisory", "529"},
		{"Waiting-Threshold", "53"},
		{"hot-spot", "16"},
		{"UMA", "0.79"},
		{"closely-coupled", "281"},
		{"16", "45.4%"},
		{"24", "35.9%", "502"},
		{"2 workers/processor", "294"},
	}
	for i, out := range outs {
		for _, w := range wants[i] {
			if !strings.Contains(out, w) {
				t.Errorf("render %d missing %q:\n%s", i, w, out)
			}
		}
	}
}
