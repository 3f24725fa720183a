package workload

import (
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
)

func wlMachine(procs int) sim.Config {
	return sim.Config{
		Nodes:         procs,
		LocalAccess:   100,
		RemoteAccess:  400,
		AtomicExtra:   100,
		Instr:         50,
		ContextSwitch: 10 * sim.Microsecond,
		Wakeup:        15 * sim.Microsecond,
		Seed:          1,
	}
}

func TestRunCSBasic(t *testing.T) {
	res, err := RunCS(CSConfig{
		Procs: 4, Threads: 4, Iters: 10,
		CSLength: 20 * sim.Microsecond, LocalWork: 50 * sim.Microsecond,
		Machine: wlMachine(4),
	}, SpinStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.Stats.Acquisitions != 40 {
		t.Fatalf("acquisitions = %d, want 40", res.Stats.Acquisitions)
	}
}

func TestRunCSValidation(t *testing.T) {
	if _, err := RunCS(CSConfig{}, SpinStrategy()); err == nil {
		t.Fatal("RunCS accepted zero config")
	}
}

// With one thread per processor, spinning beats blocking: the spinner has
// nothing better to do with its processor ([MS93] §2, first bullet).
func TestSpinBeatsBlockOneThreadPerProc(t *testing.T) {
	cfg := CSConfig{
		Procs: 4, Threads: 4, Iters: 30,
		CSLength: 20 * sim.Microsecond, LocalWork: 30 * sim.Microsecond,
		Machine: wlMachine(4),
	}
	spin, err := RunCS(cfg, SpinStrategy())
	if err != nil {
		t.Fatal(err)
	}
	block, err := RunCS(cfg, BlockStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if spin.Elapsed >= block.Elapsed {
		t.Fatalf("spin (%v) not faster than block (%v) with threads == procs", spin.Elapsed, block.Elapsed)
	}
}

// With multiple runnable threads per processor under preemptive
// timeslicing, spinning steals cycles from threads that could make
// progress — and a preempted lock holder makes spinners wait entire
// scheduling rotations; blocking wins ([MS93] §2, second bullet).
func TestBlockBeatsSpinMultiprogrammed(t *testing.T) {
	m := wlMachine(2)
	m.Quantum = 500 * sim.Microsecond
	cfg := CSConfig{
		Procs: 2, Threads: 8, Iters: 15,
		CSLength: 100 * sim.Microsecond, LocalWork: 300 * sim.Microsecond,
		Machine: m,
	}
	spin, err := RunCS(cfg, SpinStrategy())
	if err != nil {
		t.Fatal(err)
	}
	block, err := RunCS(cfg, BlockStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if block.Elapsed >= spin.Elapsed {
		t.Fatalf("block (%v) not faster than spin (%v) with threads ≫ procs", block.Elapsed, spin.Elapsed)
	}
}

func TestCombinedStrategiesRun(t *testing.T) {
	cfg := CSConfig{
		Procs: 2, Threads: 6, Iters: 10,
		CSLength: 50 * sim.Microsecond, LocalWork: 100 * sim.Microsecond,
		Machine: wlMachine(2),
	}
	for _, k := range []int64{1, 10, 50} {
		res, err := RunCS(cfg, CombinedStrategy(k))
		if err != nil {
			t.Fatalf("combined-%d: %v", k, err)
		}
		if res.Stats.Acquisitions != 60 {
			t.Fatalf("combined-%d acquisitions = %d, want 60", k, res.Stats.Acquisitions)
		}
	}
}

func TestClientServerAllSchedulers(t *testing.T) {
	response := map[string]sim.Time{}
	for _, sched := range []string{locks.SchedFCFS, locks.SchedPriority, locks.SchedHandoff} {
		res, err := RunClientServer(ClientServerConfig{Scheduler: sched, Machine: wlMachine(csClients + 1)})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.Served != csClients*csRequests {
			t.Fatalf("%s: served %d, want %d", sched, res.Served, csClients*csRequests)
		}
		response[sched] = res.MeanResponse
	}
	// The paper's client-server result: priority locks perform best, FCFS
	// worst ([MS93] via §2).
	if response[locks.SchedPriority] >= response[locks.SchedFCFS] {
		t.Fatalf("priority response (%v) not better than FCFS (%v)",
			response[locks.SchedPriority], response[locks.SchedFCFS])
	}
	if response[locks.SchedHandoff] >= response[locks.SchedFCFS] {
		t.Fatalf("handoff response (%v) not better than FCFS (%v)",
			response[locks.SchedHandoff], response[locks.SchedFCFS])
	}
}

func TestClientServerValidation(t *testing.T) {
	if _, err := RunClientServer(ClientServerConfig{Scheduler: "bogus"}); err == nil {
		t.Fatal("accepted bogus scheduler")
	}
}
