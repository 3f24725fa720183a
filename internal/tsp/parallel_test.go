package tsp

import (
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
)

// fastMachine keeps latencies small so parallel tests stay quick.
func fastMachine(nodes int) sim.Config {
	return sim.Config{
		Nodes:         nodes,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         2,
		ContextSwitch: 200,
		Wakeup:        400,
		Seed:          1,
	}
}

func solveWith(t *testing.T, org Organization, kind locks.Kind, n int, seed uint64, searchers int) Result {
	t.Helper()
	in := NewRandomInstance(n, seed)
	res, err := Solve(Config{
		Instance:  in,
		Searchers: searchers,
		Org:       org,
		LockKind:  kind,
		Machine:   fastMachine(searchers),
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", org, kind, err)
	}
	if err := res.Tour.Valid(in); err != nil {
		t.Fatalf("%s/%s: invalid tour: %v", org, kind, err)
	}
	return res
}

func TestAllOrganizationsFindOptimum(t *testing.T) {
	for _, org := range []Organization{OrgCentralized, OrgDistributed, OrgDistributedLB} {
		org := org
		t.Run(string(org), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				in := NewRandomInstance(9, seed)
				want := SolveBruteForce(in).Cost
				res, err := Solve(Config{
					Instance:  in,
					Searchers: 4,
					Org:       org,
					LockKind:  locks.KindBlocking,
					Machine:   fastMachine(4),
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Tour.Cost != want {
					t.Fatalf("seed %d: parallel cost %d, optimum %d", seed, res.Tour.Cost, want)
				}
			}
		})
	}
}

func TestAllLockKindsSolveCentralized(t *testing.T) {
	in := NewRandomInstance(9, 5)
	want := SolveBruteForce(in).Cost
	for _, kind := range []locks.Kind{locks.KindSpin, locks.KindBlocking, locks.KindAdaptive} {
		res := solveWith(t, OrgCentralized, kind, 9, 5, 4)
		if res.Tour.Cost != want {
			t.Fatalf("%s: cost %d, want %d", kind, res.Tour.Cost, want)
		}
	}
}

func TestSequentialSimMatchesSerial(t *testing.T) {
	in := NewRandomInstance(10, 3)
	serial := SolveSerial(in)
	res, err := SolveSequentialSim(in, fastMachine(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tour.Cost != serial.Tour.Cost {
		t.Fatalf("sim sequential cost %d, native %d", res.Tour.Cost, serial.Tour.Cost)
	}
	if res.Expansions != serial.Expansions {
		t.Fatalf("sim expansions %d, native %d (must run the same algorithm)", res.Expansions, serial.Expansions)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestParallelFasterThanSequential(t *testing.T) {
	// A Euclidean instance gives a deep search tree, and a high
	// per-work-unit charge makes expansion dominate lock overhead — the
	// regime where parallel branch-and-bound pays (the paper reports 6.5×
	// on 10 processors).
	in := NewEuclideanInstance(14, 1)
	seq, err := SolveSequentialSim(in, fastMachine(1), 50)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(Config{
		Instance:         in,
		Searchers:        8,
		Org:              OrgCentralized,
		LockKind:         locks.KindBlocking,
		Machine:          fastMachine(8),
		StepsPerWorkUnit: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Tour.Cost != seq.Tour.Cost {
		t.Fatalf("parallel cost %d != sequential %d", par.Tour.Cost, seq.Tour.Cost)
	}
	if par.Elapsed >= seq.Elapsed {
		t.Fatalf("parallel (%v) not faster than sequential (%v)", par.Elapsed, seq.Elapsed)
	}
}

func TestDeterministicParallelRuns(t *testing.T) {
	a := solveWith(t, OrgDistributed, locks.KindAdaptive, 10, 4, 4)
	b := solveWith(t, OrgDistributed, locks.KindAdaptive, 10, 4, 4)
	if a.Elapsed != b.Elapsed || a.Expansions != b.Expansions || a.Tour.Cost != b.Tour.Cost {
		t.Fatalf("runs diverge: %v/%d vs %v/%d", a.Elapsed, a.Expansions, b.Elapsed, b.Expansions)
	}
}

func TestCentralizedHasMoreQlockContentionThanDistributed(t *testing.T) {
	cen := solveWith(t, OrgCentralized, locks.KindBlocking, 11, 2, 6)
	dis := solveWith(t, OrgDistributed, locks.KindBlocking, 11, 2, 6)
	cenQ := cen.LockStats[LockQueue]
	disQ := dis.LockStats[LockQueue]
	if cenQ.Acquisitions == 0 || disQ.Acquisitions == 0 {
		t.Fatal("qlock stats missing")
	}
	cenRate := float64(cenQ.Contended) / float64(cenQ.Acquisitions)
	disRate := float64(disQ.Contended) / float64(disQ.Acquisitions)
	if cenRate <= disRate {
		t.Fatalf("contention: centralized %.3f ≤ distributed %.3f; the paper's Figure 4 vs 6 shape is inverted", cenRate, disRate)
	}
}

func TestDistributedDoesUselessWork(t *testing.T) {
	// With stale local bounds the distributed organizations expand nodes a
	// consistent bound would prune; the centralized one prunes optimally.
	cen := solveWith(t, OrgCentralized, locks.KindBlocking, 11, 2, 6)
	dis := solveWith(t, OrgDistributed, locks.KindBlocking, 11, 2, 6)
	if dis.Expansions < cen.Expansions {
		t.Logf("note: distributed expanded fewer nodes (%d vs %d) on this instance", dis.Expansions, cen.Expansions)
	}
	if cen.Useless > dis.Useless {
		t.Fatalf("useless work: centralized %d > distributed %d", cen.Useless, dis.Useless)
	}
}

func TestPatternsRecorded(t *testing.T) {
	in := NewRandomInstance(10, 2)
	res, err := Solve(Config{
		Instance:       in,
		Searchers:      4,
		Org:            OrgCentralized,
		LockKind:       locks.KindBlocking,
		Machine:        fastMachine(4),
		RecordPatterns: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Patterns[LockQueue]
	if q == nil || q.Len() == 0 {
		t.Fatal("no qlock pattern recorded")
	}
	if res.Patterns[LockActive] == nil {
		t.Fatal("no glob-act-lock pattern recorded")
	}
}

func TestAdaptiveConfiguresUncontendedLocksToSpin(t *testing.T) {
	res := solveWith(t, OrgCentralized, locks.KindAdaptive, 11, 2, 6)
	// glob-low-lock and globlock see little contention; the adaptation
	// policy must have driven them toward pure spin (§4).
	for _, name := range []string{LockLowest, LockGlobal} {
		if spin, ok := res.FinalSpin[name]; ok {
			if spin < locks.DefaultInitialSpins {
				t.Errorf("%s final spin-time %d; expected ≥ initial (no contention → spin)", name, spin)
			}
		} else {
			t.Errorf("no FinalSpin entry for %s", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Solve(Config{}); err == nil {
		t.Fatal("Solve accepted nil instance")
	}
	in := NewRandomInstance(6, 1)
	if _, err := Solve(Config{Instance: in, Org: Organization("bogus")}); err == nil {
		t.Fatal("Solve accepted bogus organization")
	}
}
