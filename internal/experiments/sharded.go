package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

// ShardedRow is one row of the sharded-scaling experiment. SimTime,
// Busy, and Checksum are properties of the workload, not the partition:
// every row must carry identical values, and the determinism tests (and
// CI) fail loudly if any shard count drifts. CrossMsgs grows with the
// shard count — it counts how much of the same communication crossed
// partition boundaries. Coord holds the coordinator's counters (zero at
// one shard, where no windows run); like CrossMsgs they depend on the
// partition but never on the worker count or the host.
type ShardedRow struct {
	Shards    int
	SimTime   sim.Time
	Busy      sim.Time
	Wakeups   int
	Preempt   int
	CrossMsgs uint64
	Checksum  uint64
	Coord     sim.ShardStats
}

// ShardedRun executes the scaling workload on one big machine
// partitioned into the given number of shards and returns its row; the
// sharded experiment runs it at 1, 2, 4 and 8 shards. The workload is a
// ring of client/server pairs, one per node, wired entirely through the
// shard-legal primitives — posted cell operations for data, WakePost
// for wakeups, ForkPost for migration, BlockTimeout and bounded
// spin-then-yield for waiting. Driver n posts work into the mailbox of
// the server on node (n+1) mod N and spins (yielding) on a local flag
// the server acknowledges through; after its rounds it forks a child
// onto the node halfway across the machine, which posts into a hub
// counter on node 0. All randomness is seeded per (seed, node), so the
// history is a function of the workload alone — never of the partition.
//
// Zero arguments take the defaults: 64 nodes, seed 1, GOMAXPROCS
// workers (purely wall-clock: every value produces identical rows) and
// 4 request rounds per node pair. shards is clamped to [1, nodes].
func ShardedRun(cfg sim.Config, shards, workers, rounds int) (ShardedRow, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	shards = min(max(shards, 1), cfg.Nodes)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if rounds < 1 {
		rounds = 4
	}
	cl := cthreads.NewCluster(cfg, sim.ShardOptions{Shards: shards, Workers: workers})
	n := cl.Procs()
	seed := cl.Sharded().Config().Seed

	mail := make([]*sim.Cell, n)
	flags := make([]*sim.Cell, n)
	for i := 0; i < n; i++ {
		mach := cl.SystemFor(i).Machine()
		mail[i] = mach.NewCell(i, fmt.Sprintf("mail%d", i), 0)
		flags[i] = mach.NewCell(i, fmt.Sprintf("flag%d", i), 0)
	}
	hub := cl.SystemFor(0).Machine().NewCell(0, "hub", 0)

	servers := make([]*cthreads.Thread, n)
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(seed*2_000_003 + uint64(i)*104_729 + 5)
		servers[i] = cl.Fork(i, fmt.Sprintf("srv%d", i), func(t *cthreads.Thread) {
			box := mail[i]
			ack := flags[(i-1+n)%n]
			consumed := uint64(0)
			for consumed < uint64(rounds) {
				if box.Load(t) == consumed {
					t.BlockTimeout(sim.Time(400+r.Intn(300)) * sim.Microsecond)
					continue
				}
				for box.Load(t) > consumed {
					t.Compute(50 + r.Intn(400))
					consumed++
					ack.PostAdd(t, 1)
				}
			}
		})
	}
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(seed*3_000_017 + uint64(i)*15_485_863 + 9)
		cl.Fork(i, fmt.Sprintf("drv%d", i), func(t *cthreads.Thread) {
			srv := servers[(i+1)%n]
			box := mail[(i+1)%n]
			flag := flags[i]
			for round := 0; round < rounds; round++ {
				t.Compute(100 + r.Intn(1500))
				box.PostAdd(t, 1)
				t.WakePost(srv)
				// Bounded spin then yield: the server shares this processor.
				want := uint64(round + 1)
				pause := sim.Time(300 + r.Intn(700))
				for {
					_, ok := t.SpinUntil(&sim.SpinSpec{
						ProbeCell: flag,
						Probe:     func() bool { return flag.Peek() >= want },
						PauseCost: func() sim.Time { return pause },
						MaxIters:  64 + int64(r.Intn(64)),
					})
					if ok {
						break
					}
					t.Yield()
				}
			}
			work := 200 + r.Intn(800)
			t.ForkPost((i+n/2)%n, fmt.Sprintf("mig%d", i), func(t *cthreads.Thread) {
				t.Compute(work)
				hub.PostAdd(t, 1)
			})
		})
	}
	if err := cl.Run(); err != nil {
		return ShardedRow{}, err
	}

	row := ShardedRow{Shards: shards}
	for i := 0; i < cl.Shards(); i++ {
		sys := cl.System(i)
		if now := sys.Now(); now > row.SimTime {
			row.SimTime = now
		}
		for _, t := range sys.Threads() {
			row.Busy += t.Busy()
		}
		for j := 0; j < cl.Shards(); j++ {
			c, _ := cl.Sharded().EdgeStats(i, j)
			row.CrossMsgs += c
		}
	}
	st := cl.Stats()
	row.Wakeups, row.Preempt = st.Wakeups, st.Preemptions
	row.Coord = cl.Sharded().Stats()
	// Workload-result fingerprint (FNV-1a over the final cell values):
	// any divergence between shard counts lands here even if the timing
	// columns happen to agree.
	sum := uint64(14695981039346656037)
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			sum ^= (v >> (8 * b)) & 0xff
			sum *= 1099511628211
		}
	}
	for i := 0; i < n; i++ {
		mix(mail[i].Peek())
		mix(flags[i].Peek())
	}
	mix(hub.Peek())
	row.Checksum = sum
	return row, nil
}

// RenderShardedScaling formats the scaling rows. The virtual-time,
// busy, and checksum columns must read identically down the table —
// that is the determinism contract, printed where it can be seen.
func RenderShardedScaling(rows []ShardedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded engine scaling: one big machine, identical history at every partition\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %10s %10s %12s %18s\n",
		"shards", "virtual-time", "busy", "wakeups", "preempt", "cross-msgs", "checksum")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %14s %14s %10d %10d %12d %18x\n",
			r.Shards, r.SimTime, r.Busy, r.Wakeups, r.Preempt, r.CrossMsgs, r.Checksum)
	}
	return b.String()
}
