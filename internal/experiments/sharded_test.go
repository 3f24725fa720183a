package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// shardedTestRows runs a small ring at shards 1, 2, 4 and 8, as the
// sharded experiment does, sweeping the shard counts over jobs workers
// and running each with the given per-run worker count.
func shardedTestRows(jobs, workers int) ([]ShardedRow, error) {
	return sweep(Env{Jobs: jobs}, 4, func(i int) (ShardedRow, error) {
		return ShardedRun(sim.Config{Nodes: 16, Seed: 7}, 1<<i, workers, 3)
	})
}

// TestShardedSweepDeterminism renders the sharded-scaling experiment
// across the full jobs × workers grid and demands byte-identical
// output: neither the sweep fan-out (host goroutines running different
// shard counts concurrently) nor the per-run worker pool (host
// goroutines advancing shards of one run concurrently) may leak into
// results. This is the experiments-level face of the engine's
// determinism contract.
func TestShardedSweepDeterminism(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 4, 8} {
		for _, workers := range []int{1, 2, 4} {
			rows, err := shardedTestRows(jobs, workers)
			if err != nil {
				t.Fatalf("jobs=%d workers=%d: %v", jobs, workers, err)
			}
			got := RenderShardedScaling(rows)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("jobs=%d workers=%d rendered differently:\n--- first\n%s--- got\n%s",
					jobs, workers, want, got)
			}
		}
	}
	if want == "" {
		t.Fatal("no output produced")
	}
}

// TestShardedScalingInvariants checks the row-level contract directly:
// the grid covers shards 1,2,4,8; virtual time, busy time, wakeups,
// preemptions, and the result checksum are identical in every row; the
// serial row has zero cross-shard messages while every sharded row has
// real traffic.
func TestShardedScalingInvariants(t *testing.T) {
	rows, err := shardedTestRows(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want rows for shards 1,2,4,8, got %d rows", len(rows))
	}
	for i, r := range rows {
		if want := 1 << i; r.Shards != want {
			t.Errorf("row %d: shards = %d, want %d", i, r.Shards, want)
		}
		if r.SimTime != rows[0].SimTime || r.Busy != rows[0].Busy ||
			r.Wakeups != rows[0].Wakeups || r.Preempt != rows[0].Preempt ||
			r.Checksum != rows[0].Checksum {
			t.Errorf("row %d (%d shards) diverged from serial: %+v vs %+v",
				i, r.Shards, r, rows[0])
		}
	}
	if rows[0].CrossMsgs != 0 {
		t.Errorf("serial row reports %d cross-shard messages, want 0", rows[0].CrossMsgs)
	}
	for _, r := range rows[1:] {
		if r.CrossMsgs == 0 {
			t.Errorf("%d shards: no cross-shard messages — windows never engaged", r.Shards)
		}
	}
	out := RenderShardedScaling(rows)
	if !strings.Contains(out, "cross-msgs") || !strings.Contains(out, "checksum") {
		t.Errorf("render missing headers:\n%s", out)
	}
}

// TestShardedCrossSourceTies pins how often the barrier merge breaks a
// (when, at) tie between different source shards by source rank, the one
// order it cannot take from the serial engine. The 1024-node ring has one
// such tie at 4 and 8 shards: two hub PostAdds reaching shard 0 at the
// same instant, sent at the same instant, which commute. The counts and
// the other coordinator counters must not depend on the worker count.
func TestShardedCrossSourceTies(t *testing.T) {
	cases := []struct {
		nodes, rounds, shards int
		ties                  uint64
	}{
		{1024, 2, 2, 0},
		{1024, 2, 4, 1},
		{1024, 2, 8, 1},
		{64, 4, 2, 0},
		{64, 4, 4, 0},
		{64, 4, 8, 0},
	}
	for _, c := range cases {
		cfg := sim.Config{Nodes: c.nodes, Seed: 1}
		var first sim.ShardStats
		for i, workers := range []int{1, 2} {
			row, err := ShardedRun(cfg, c.shards, workers, c.rounds)
			if err != nil {
				t.Fatalf("%d nodes, %d shards, %d workers: %v", c.nodes, c.shards, workers, err)
			}
			if row.Coord.CrossSourceTies != c.ties {
				t.Errorf("%d nodes, %d shards, %d workers: %d cross-source ties, want %d",
					c.nodes, c.shards, workers, row.Coord.CrossSourceTies, c.ties)
			}
			if row.Coord.Windows == 0 {
				t.Errorf("%d nodes, %d shards: no windows counted", c.nodes, c.shards)
			}
			if i == 0 {
				first = row.Coord
			} else if row.Coord != first {
				t.Errorf("%d nodes, %d shards: counters %+v at %d workers, %+v at 1",
					c.nodes, c.shards, row.Coord, workers, first)
			}
		}
	}
}
