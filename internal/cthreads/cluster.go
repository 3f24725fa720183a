package cthreads

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Cluster is a thread package spanning a sharded machine: one System
// per shard, each scheduling the processors its shard owns, coordinated
// by the sim.Sharded window loop. Threads stay pinned, as always; what
// crosses shards is communication — posted cell operations, WakePost
// wake messages, and ForkPost remote thread creation — all of which
// behave identically on a serial machine, so the same workload runs
// bit-for-bit the same at every shard count.
//
// Synchronous cross-shard interactions (Wake on a remote shard's
// thread, blocking locks shared across shards) are illegal under a
// Cluster with more than one shard: they read and write peer-shard
// state with zero lookahead. Workloads meant for sharded execution use
// the posted forms; the crossshard simlint analyzer enforces the
// package-side discipline.
type Cluster struct {
	sh      *sim.Sharded
	systems []*System
}

// NewCluster partitions a machine described by cfg into shards (see
// sim.NewSharded) and builds one thread System per shard.
func NewCluster(cfg sim.Config, opts sim.ShardOptions) *Cluster {
	sh := sim.NewSharded(cfg, opts)
	cl := &Cluster{sh: sh, systems: make([]*System, sh.Shards())}
	for i := range cl.systems {
		sys := OnMachine(sh.Machine(i))
		sys.cluster = cl
		cl.systems[i] = sys
	}
	return cl
}

// Sharded returns the underlying coordinator.
func (cl *Cluster) Sharded() *sim.Sharded { return cl.sh }

// Shards reports the number of partitions.
func (cl *Cluster) Shards() int { return len(cl.systems) }

// System returns shard i's thread system.
func (cl *Cluster) System(i int) *System { return cl.systems[i] }

// SystemFor returns the thread system owning processor node n.
func (cl *Cluster) SystemFor(n int) *System { return cl.systems[cl.sh.RankOf(n)] }

// Procs reports the total number of processors across all shards.
func (cl *Cluster) Procs() int { return cl.sh.Config().Nodes }

// Fork creates a thread pinned to processor proc on whichever shard
// owns it. Setup-time convenience; from inside the simulation, remote
// creation must pay wire latency — use Thread.ForkPost.
func (cl *Cluster) Fork(proc int, name string, fn func(t *Thread)) *Thread {
	return cl.SystemFor(proc).Fork(proc, name, fn)
}

// Stats sums the scheduling counters of every shard's system.
func (cl *Cluster) Stats() Stats {
	var total Stats
	for _, sys := range cl.systems {
		st := sys.Stats()
		total.Forks += st.Forks
		total.ContextSwitches += st.ContextSwitches
		total.Wakeups += st.Wakeups
		total.Timeouts += st.Timeouts
		total.Preemptions += st.Preemptions
	}
	return total
}

// Run executes the sharded simulation to completion (sim.Sharded.Run).
// On deadlock the error names each shard's stuck threads on top of the
// coordinator's parked-coro and mailbox-edge report.
func (cl *Cluster) Run() error {
	err := cl.sh.Run()
	for _, sys := range cl.systems {
		if sys.prof != nil {
			end := sys.eng.Now()
			for _, t := range sys.all {
				t.prof.Flush(end)
			}
		}
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, sim.ErrDeadlock) {
		var stuck []string
		for i, sys := range cl.systems {
			for _, t := range sys.all {
				if t.state != StateDone {
					stuck = append(stuck, fmt.Sprintf("%s(%s, shard %d)", t.name, t.state, i))
				}
			}
		}
		return fmt.Errorf("cthreads: %w; stuck threads: %s", err, strings.Join(stuck, ", "))
	}
	return err
}

// WakePost sends a wakeup message to target without waiting to observe
// its state: the message leaves now, travels for the machine's wakeup
// latency, and on arrival — on target's own shard — makes target ready
// if it is still blocked (a late message against a thread that already
// woke is dropped, exactly like Wake's false return). The caller is
// charged the wakeup cost, as with Wake.
//
// WakePost is the cross-shard form of Wake and the only legal one when
// target lives on another shard of a Cluster: Wake reads target's state
// synchronously at charge-completion time, which is only possible
// within one shard. Unlike Wake the outcome check happens at message
// *arrival*, so WakePost is a distinct primitive with shard-count-
// invariant semantics rather than a transparent replacement — on a
// serial machine it behaves identically to itself under any sharding,
// which is the property the differential suites pin.
func (t *Thread) WakePost(target *Thread) {
	t.mustBeRunning("WakePost")
	m := t.sys.mach
	d := t.sys.cfg.Wakeup
	m.Route(t.Node(), target.Node(), d, func() {
		if target.state == StateBlocked {
			target.sys.ready(target)
		}
	})
	t.Advance(d)
}

// ForkPost creates a thread pinned to processor proc — on any shard —
// after one reference latency from the caller's node: the simulated
// cost of shipping a work descriptor to a (possibly remote) processor.
// This is how work migrates across a Cluster; the thread itself, once
// created, stays pinned like every other. On a standalone machine the
// fork simply lands after the same latency. fn runs once the new
// thread is scheduled; ForkPost returns immediately (the caller cannot
// hold a reference to a thread that does not exist yet — rendezvous
// through cells or wakeups instead).
func (t *Thread) ForkPost(proc int, name string, fn func(*Thread)) {
	t.mustBeRunning("ForkPost")
	m := t.sys.mach
	sys := t.sys
	if cl := sys.cluster; cl != nil {
		sys = cl.SystemFor(proc)
	}
	d := m.AccessCost(t.Node(), proc)
	m.Route(t.Node(), proc, d, func() {
		sys.Fork(proc, name, fn)
	})
	t.Advance(d)
}
