package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/tsp"
)

// TestMonitorHotspotHeadline pins the tentpole's performance claim on the
// contended hotspot: under high contention (32 callers) flat combining
// must cut both p99 method-completion latency and total elapsed time
// versus synchronous locking — and at low contention (2 callers) sync
// must win elapsed, the honest other side of the trade.
func TestMonitorHotspotHeadline(t *testing.T) {
	rows, err := MonitorHotspot(Env{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]MonitorHotspotRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Mode, r.Callers)] = r
	}
	sync32, flat32 := byKey["sync/32"], byKey["flat/32"]
	if flat32.P99 >= sync32.P99 {
		t.Errorf("32 callers: flat p99 %v not below sync p99 %v", flat32.P99, sync32.P99)
	}
	if flat32.Elapsed >= sync32.Elapsed {
		t.Errorf("32 callers: flat elapsed %v not below sync elapsed %v", flat32.Elapsed, sync32.Elapsed)
	}
	sync8, flat8 := byKey["sync/8"], byKey["flat/8"]
	if flat8.P99 >= sync8.P99 {
		t.Errorf("8 callers: flat p99 %v not below sync p99 %v", flat8.P99, sync8.P99)
	}
	sync2, flat2 := byKey["sync/2"], byKey["flat/2"]
	if sync2.Elapsed >= flat2.Elapsed {
		t.Errorf("2 callers: sync elapsed %v not below flat elapsed %v — the low-contention overhead disappeared?", sync2.Elapsed, flat2.Elapsed)
	}
	if byKey["flat/32"].Batches == 0 || byKey["server/32"].Batches == 0 {
		t.Error("no combining batches recorded")
	}
}

// TestMonitorPhasesSwitchesBothWays checks the phase-changing workload
// drives at least one sensor-driven sync→async switch and the return.
func TestMonitorPhasesSwitchesBothWays(t *testing.T) {
	rep, err := MonitorPhases(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var toAsync, backToSync bool
	for _, s := range rep.Switches {
		if strings.Contains(s.Decision, "exec-mode←1") {
			toAsync = true
		}
		if toAsync && strings.Contains(s.Decision, "exec-mode←0") {
			backToSync = true
		}
	}
	if !toAsync || !backToSync {
		t.Fatalf("switches = %+v, want sync→async and async→sync", rep.Switches)
	}
	if rep.SyncCalls == 0 || rep.Submits == 0 {
		t.Fatalf("report = %+v, want both modes exercised", rep)
	}
}

// TestMonitorSweepParallelDeterminism extends the -j gate to the new
// sweeps: parallel fan-out must be byte-identical to serial.
func TestMonitorSweepParallelDeterminism(t *testing.T) {
	render := func(jobs int) string {
		hot, err := MonitorHotspot(Env{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := WaitLatencySweep(Env{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return RenderMonitorHotspot(hot).String() + RenderWaitLatency(wl).String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("monitor sweeps differ between -j 1 and -j 8:\n%s\n--- vs ---\n%s", serial, parallel)
	}
}

// shardedOnly drops the serial modes of a sharded matrix: ShardedRun has
// no serial engine.
func shardedOnly(modes []simtest.Mode) []simtest.Mode {
	var out []simtest.Mode
	for _, m := range modes {
		if m.Shards > 0 {
			out = append(out, m)
		}
	}
	return out
}

// tspAsyncOffFingerprint solves one seeded TSP instance with AsyncQueue
// disabled and renders every metric of the result, one per line.
func tspAsyncOffFingerprint(t *testing.T, mode simtest.Mode) string {
	t.Helper()
	defer useDefaultMode(mode)()
	in := tsp.NewRandomInstance(8, 3)
	res, err := tsp.Solve(tsp.Config{
		Instance:  in,
		Searchers: 4,
		Org:       tsp.OrgCentralized,
		LockKind:  locks.KindAdaptive,
		Machine:   sim.Config{Nodes: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cost %d\nelapsed %d\nexpansions %d\nuseless %d\nqueue lock %+v\nfinal spin %v\nsched %+v\n",
		res.Tour.Cost, res.Elapsed, res.Expansions, res.Useless,
		res.LockStats[tsp.LockQueue], res.FinalSpin, res.Sched)
}

// TestAsyncOffEngineModeDifferential checks that the monitor code adds
// no charge to the disabled path: with the async queue disabled the TSP
// solve stays byte-identical in every serial engine mode, and the
// sharded scaling workload stays identical at every shard count, worker
// count and engine mode of the matrix. tsp.Solve and ShardedRun build
// their systems themselves, so the modes are set as process defaults.
func TestAsyncOffEngineModeDifferential(t *testing.T) {
	t.Run("tsp", func(t *testing.T) {
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
			return tspAsyncOffFingerprint(t, m)
		})
	})
	t.Run("sharded", func(t *testing.T) {
		cfg := sim.Config{Nodes: 8, Seed: 1}
		simtest.Check(t, shardedOnly(simtest.Sharded(cfg.Nodes)), func(m simtest.Mode) string {
			defer useDefaultMode(m)()
			r, err := ShardedRun(cfg, m.Shards, m.Workers, 6)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("sim time %d\nbusy %d\nwakeups %d\npreemptions %d\nchecksum %d\n",
				r.SimTime, r.Busy, r.Wakeups, r.Preempt, r.Checksum)
		})
	})
}
