package sim

import "sync/atomic"

// Stats counts an engine's mechanism: how its events were carried out,
// as opposed to what they did. For a given engine mode (inline wakeups,
// batched spins) every count is exact and repeatable, but the counts
// differ between modes, so no simulated output may depend on them. They
// explain host cost: a run's wall-clock time divided by Events is its
// cost per event, and the spin counts show how much of the spinning the
// fast path took in closed form.
type Stats struct {
	// Events counts events popped from the heap or the spin lane.
	Events uint64
	// Dispatches counts coroutine handoffs (Engine.dispatch).
	Dispatches uint64
	// InlineWakeups counts wakeups advanced in place instead of through
	// the heap: Coro.Sleep's and the spin emulator's charge steps.
	InlineWakeups uint64
	// SpinCharges counts spin charge events fired one at a time.
	SpinCharges uint64
	// Commits counts materializations that applied at least one spin-lane
	// member's charges in closed form — a group leaving the lane
	// together, a state read, a reservation of a member's module;
	// MemberCommits sums the members they applied, BatchedIters the
	// futile iterations those members skipped, and SharedCommits counts
	// the materializations that applied two or more members at once.
	Commits       uint64
	MemberCommits uint64
	BatchedIters  uint64
	SharedCommits uint64
	// Evictions count the members that left the spin lane, by cause: a
	// probe cell holding another value than the member's last probe saw,
	// someone else reserving the probed module, the member's own slice
	// boundary or MaxIters, a run start, another occurrence at an instant
	// where the member charges (a tie), and the end of an event loop.
	// Volatile spinners never join the lane. StateReads counts
	// the members brought up to date, without leaving the lane, because
	// something read what they accrue (Engine.SyncSpins).
	EvictCell    uint64
	EvictModule  uint64
	EvictOwn     uint64
	EvictRun     uint64
	EvictTie     uint64
	EvictLoopEnd uint64
	StateReads   uint64
	// LaneSurvivals sums, over every coroutine dispatch and callback, the
	// spin-lane members present at it. A member stays in the lane
	// through the occurrence unless it harms the member.
	LaneSurvivals uint64
	// LaneRefusals counts the sleeps and spin charges that could not
	// advance inline only because of the spin lane; LanePassed counts
	// the inline advances that passed member charges.
	LaneRefusals uint64
	LanePassed   uint64
}

// Stats reports the engine's mechanism counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// Sub returns s − o, the counts between two readings.
func (s Stats) Sub(o Stats) Stats {
	of := o.fields()
	for i, f := range s.fields() {
		*f -= *of[i]
	}
	return s
}

// statsFields is the number of counters in Stats.
const statsFields = 18

// fields lists pointers to every counter in declaration order.
func (s *Stats) fields() [statsFields]*uint64 {
	return [statsFields]*uint64{
		&s.Events, &s.Dispatches, &s.InlineWakeups, &s.SpinCharges,
		&s.Commits, &s.MemberCommits, &s.BatchedIters, &s.SharedCommits,
		&s.EvictCell, &s.EvictModule, &s.EvictOwn, &s.EvictRun,
		&s.EvictTie, &s.EvictLoopEnd, &s.StateReads,
		&s.LaneSurvivals, &s.LaneRefusals, &s.LanePassed,
	}
}

// totals accumulates every engine's counters in this process, so a
// caller that does not hold the engines (a benchmark running a whole
// experiment) can still read them. Each engine adds what it counted
// since its last report when an event loop returns and at shutdown. The
// sum does not depend on the order engines report in, so it is as exact
// as each engine's own counts.
var totals [statsFields]atomic.Uint64

// TotalStats reports the counters summed over every engine in the
// process up to each one's last report; take the difference of two
// readings to count a span of work.
func TotalStats() Stats {
	var s Stats
	for i, f := range s.fields() {
		*f = totals[i].Load()
	}
	return s
}

// reportStats adds the counts since the engine's last report to the
// process totals.
func (e *Engine) reportStats() {
	d := e.stats.Sub(e.reported)
	for i, f := range d.fields() {
		if *f != 0 {
			totals[i].Add(*f)
		}
	}
	e.reported = e.stats
}
