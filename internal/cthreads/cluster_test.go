package cthreads

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// clusterTopo abstracts "one thread package over one big machine" over
// its two implementations: a standalone System or a Cluster partition.
type clusterTopo struct {
	cl        *Cluster // nil for a standalone System
	systemFor func(node int) *System
	systems   []*System
	run       func() error
}

// clusterTopoFor builds cfg's thread package in mode: a standalone
// System when mode.Shards is 0, a Cluster partition otherwise, with
// mode's fast paths set on every engine.
func clusterTopoFor(cfg sim.Config, mode simtest.Mode) *clusterTopo {
	tp := &clusterTopo{}
	if mode.Shards == 0 {
		sys := New(cfg)
		tp.systemFor, tp.systems, tp.run = func(int) *System { return sys }, []*System{sys}, sys.Run
	} else {
		tp.cl = NewCluster(cfg, sim.ShardOptions{Shards: mode.Shards, Workers: mode.Workers})
		tp.systemFor, tp.systems, tp.run = tp.cl.SystemFor, tp.cl.systems, tp.cl.Run
	}
	for _, sys := range tp.systems {
		mode.Set(sys.Engine())
	}
	return tp
}

func (tp *clusterTopo) stats() Stats {
	var total Stats
	for _, sys := range tp.systems {
		st := sys.Stats()
		total.Forks += st.Forks
		total.ContextSwitches += st.ContextSwitches
		total.Wakeups += st.Wakeups
		total.Timeouts += st.Timeouts
		total.Preemptions += st.Preemptions
	}
	return total
}

// clusterParams shapes one differential client/server workload.
type clusterParams struct {
	seed    uint64
	nodes   int
	rounds  int
	quantum sim.Time
	svc     sim.Time
}

// runClusterWorkload drives a ring of client/server pairs through every
// cross-shard primitive: driver n computes, posts work into the mailbox
// cell of the server on node (n+1)%N, sends it a WakePost, and spins on
// a local flag the server posts acknowledgements to; the server sleeps
// on BlockTimeout (immune to dropped wake messages), drains its
// mailbox, and acknowledges each unit. After its last round each driver
// ForkPosts a child onto the node halfway across the machine, which
// computes and posts into a hub counter on node 0. With a quantum
// configured, drivers, servers, and migrated children share processors
// preemptively. The same code runs on a standalone System and on any
// Cluster partition; randomness is seeded per (seed, node) only.
//
// The fingerprint holds each driver's and each server's log, stamped
// with the thread's own clock and ending with its busy (and a server's
// blocked) time, the final mailbox, flag and hub values, the summed
// scheduler statistics, and each module's accesses and queue delay, read
// from the owner shard. The workload always terminates, so a run error
// fails tb.
func runClusterWorkload(tb testing.TB, p clusterParams, tp *clusterTopo) string {
	tb.Helper()
	n := p.nodes
	logs := make([][]string, 2*n) // driver i's is logs[i], server i's logs[n+i]
	logf := func(k int, t *Thread, format string, args ...any) {
		logs[k] = append(logs[k], fmt.Sprintf("%s %d ", t.Name(), t.Now())+fmt.Sprintf(format, args...))
	}
	mail := make([]*sim.Cell, n)  // work queue depth, on the server's node
	flags := make([]*sim.Cell, n) // acks for driver i, on driver i's node
	for i := 0; i < n; i++ {
		mach := tp.systemFor(i).Machine()
		mail[i] = mach.NewCell(i, fmt.Sprintf("mail%d", i), 0)
		flags[i] = mach.NewCell(i, fmt.Sprintf("flag%d", i), 0)
	}
	hub := tp.systemFor(0).Machine().NewCell(0, "hub", 0)

	servers := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(p.seed*2_000_003 + uint64(i)*104_729 + 5)
		servers[i] = tp.systemFor(i).Fork(i, fmt.Sprintf("srv%d", i), func(t *Thread) {
			box := mail[i]
			ack := flags[(i-1+n)%n] // serves the driver one node back
			consumed := uint64(0)
			for consumed < uint64(p.rounds) {
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
			logf(n+i, t, "done busy=%d blocked=%d", t.Busy(), t.BlockedTime())
		})
	}
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(p.seed*3_000_017 + uint64(i)*15_485_863 + 9)
		tp.systemFor(i).Fork(i, fmt.Sprintf("drv%d", i), func(t *Thread) {
			srv := servers[(i+1)%n]
			box := mail[(i+1)%n]
			flag := flags[i]
			for round := 0; round < p.rounds; round++ {
				t.Compute(100 + r.Intn(1500))
				box.PostAdd(t, 1)
				t.WakePost(srv)
				// Spin-then-yield: the server shares this processor, so an
				// unbounded spin would starve it forever under cooperative
				// scheduling — the paper's spin-vs-block pathology.
				want := uint64(round + 1)
				pause := sim.Time(300 + r.Intn(700))
				probes := int64(0)
				for {
					iters, ok := t.SpinUntil(&sim.SpinSpec{
						ProbeCell: flag,
						Probe:     func() bool { return flag.Peek() >= want },
						PauseCost: func() sim.Time { return pause },
						MaxIters:  64 + int64(r.Intn(64)),
					})
					probes += iters
					if ok {
						break
					}
					t.Yield()
				}
				logf(i, t, "r%d acked after %d probes", round, probes)
			}
			child := (i + n/2) % n
			work := 200 + r.Intn(800)
			t.ForkPost(child, fmt.Sprintf("mig%d", i), func(t *Thread) {
				t.Compute(work)
				hub.PostAdd(t, 1)
			})
			logf(i, t, "migrated child to %d", child)
			logf(i, t, "done busy=%d", t.Busy())
		})
	}
	if err := tp.run(); err != nil {
		tb.Fatalf("cluster workload %+v: %v", p, err)
	}
	var fp strings.Builder
	for _, log := range logs {
		fp.WriteString(strings.Join(log, "\n") + "\n")
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&fp, "node %d: mail=%d flag=%d\n", i, mail[i].Peek(), flags[i].Peek())
	}
	fmt.Fprintf(&fp, "hub %d\nstats %+v\n", hub.Peek(), tp.stats())
	for i := 0; i < n; i++ {
		mach := tp.systemFor(i).Machine()
		fmt.Fprintf(&fp, "module %d: accesses=%d queue-delay=%d\n", i, mach.ModuleAccesses(i), mach.ModuleQueueDelay(i))
	}
	return fp.String()
}

// checkCluster runs one workload in every mode of the sharded matrix
// against the serial oracle.
func checkCluster(t *testing.T, p clusterParams) {
	t.Helper()
	cfg := sim.Config{Nodes: p.nodes, Quantum: p.quantum, ModuleService: p.svc, Seed: p.seed%89 + 1}
	simtest.Check(t, simtest.Sharded(p.nodes), func(m simtest.Mode) string {
		return runClusterWorkload(t, p, clusterTopoFor(cfg, m))
	})
}

func TestClusterDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quantum sim.Time
		svc     sim.Time
	}{
		{"coop", 0, 0},
		{"preempt", 150 * sim.Microsecond, 0},
		{"preempt+contention", 150 * sim.Microsecond, 300 * sim.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCluster(t, clusterParams{seed: 13, nodes: 8, rounds: 2, quantum: tc.quantum, svc: tc.svc})
		})
	}
}

// FuzzClusterDifferential drives randomized topologies and schedules —
// node count, rounds, preemption quantum, module contention — through
// the whole sharded matrix.
func FuzzClusterDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(6), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(23), uint8(8), uint8(2), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, rounds, quantumUnits, svcUnits uint8) {
		p := clusterParams{
			seed:    seed%1000 + 1,
			nodes:   int(nodes%7) + 2,
			rounds:  int(rounds%2) + 1,
			quantum: sim.Time(quantumUnits%4) * 80 * sim.Microsecond,
			svc:     sim.Time(svcUnits%4) * 250 * sim.Nanosecond,
		}
		checkCluster(t, p)
	})
}

// TestClusterCrossShardEngages proves the differential suite is not
// passing vacuously: the standard workload on 4 shards must exchange
// wake, ack, work, and migration messages across partitions.
func TestClusterCrossShardEngages(t *testing.T) {
	p := clusterParams{seed: 13, nodes: 8, rounds: 2}
	tp := clusterTopoFor(sim.Config{Nodes: p.nodes, Seed: 2}, simtest.Mode{Shards: 4, Inline: true, Batched: true})
	fp := runClusterWorkload(t, p, tp)
	cl := tp.cl
	var delivered uint64
	for src := 0; src < cl.Shards(); src++ {
		for dst := 0; dst < cl.Shards(); dst++ {
			c, _ := cl.Sharded().EdgeStats(src, dst)
			delivered += c
		}
	}
	// Each boundary driver alone sends rounds×(work+wake) messages, plus
	// acks back and n migrations: far more than nodes×rounds.
	if delivered < uint64(p.nodes*p.rounds) {
		t.Fatalf("only %d cross-shard messages delivered; the partition never engaged", delivered)
	}
	if want := fmt.Sprintf("\nhub %d\n", p.nodes); !strings.Contains(fp, want) {
		t.Fatalf("fingerprint lacks %q (one migrated child per driver)", want)
	}
}

// TestClusterForkOwnership pins the guard against forking a thread onto
// a processor another shard owns.
func TestClusterForkOwnership(t *testing.T) {
	cl := NewCluster(sim.Config{Nodes: 4, Seed: 1}, sim.ShardOptions{Shards: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard Fork did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "owned by shard 1") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cl.System(0).Fork(3, "trespasser", func(*Thread) {})
}

// TestClusterDeadlockNamesShards checks Cluster.Run's deadlock report
// names each stuck thread's shard.
func TestClusterDeadlockNamesShards(t *testing.T) {
	cl := NewCluster(sim.Config{Nodes: 4, Seed: 1}, sim.ShardOptions{Shards: 2})
	cl.Fork(3, "sleeper", func(t *Thread) { t.Block() })
	err := cl.Run()
	if err == nil {
		t.Fatal("want deadlock")
	}
	for _, want := range []string{"stuck threads", "sleeper(blocked, shard 1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q does not contain %q", err, want)
		}
	}
}
