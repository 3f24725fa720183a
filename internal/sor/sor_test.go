package sor

import (
	"math"
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
)

func sorMachine(nodes int) sim.Config {
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

func TestSerialConverges(t *testing.T) {
	res, err := SolveSerial(Problem{N: 24, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual >= 1e-3 {
		t.Fatalf("residual = %g, want < 1e-3", res.Residual)
	}
	if res.Sweeps < 10 {
		t.Fatalf("converged suspiciously fast: %d sweeps", res.Sweeps)
	}
	// Physical sanity: interior temperatures fall between the boundary
	// extremes and decrease away from the hot edge along the centre line.
	n := 24
	mid := (n + 2) / 2
	for i := 1; i <= n; i++ {
		v := res.Grid[i][mid]
		if v <= 0 || v >= 100 {
			t.Fatalf("interior value %g out of (0,100) at row %d", v, i)
		}
	}
	if !(res.Grid[1][mid] > res.Grid[n][mid]) {
		t.Fatal("temperature does not decrease away from the hot edge")
	}
}

func TestSerialRejectsBadProblem(t *testing.T) {
	if _, err := SolveSerial(Problem{N: 1}); err == nil {
		t.Fatal("accepted N=1")
	}
	if _, err := SolveSerial(Problem{N: 8, Omega: 2.5}); err == nil {
		t.Fatal("accepted Omega=2.5")
	}
	if _, err := SolveSerial(Problem{N: 8, MaxSweeps: 1}); err == nil {
		t.Fatal("reported convergence after 1 sweep")
	}
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	p := Problem{N: 20, Tol: 1e-3}
	serial, err := SolveSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 5, 20} {
		par, err := Solve(Config{
			Problem:  p,
			Workers:  workers,
			LockKind: locks.KindBlocking,
			Machine:  sorMachine(workers),
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if par.Sweeps != serial.Sweeps {
			t.Fatalf("%d workers: %d sweeps, serial %d", workers, par.Sweeps, serial.Sweeps)
		}
		for i := range serial.Grid {
			for j := range serial.Grid[i] {
				if par.Grid[i][j] != serial.Grid[i][j] {
					t.Fatalf("%d workers: grid[%d][%d] = %v, serial %v (red-black must be bit-exact)",
						workers, i, j, par.Grid[i][j], serial.Grid[i][j])
				}
			}
		}
	}
}

func TestParallelAllLockKinds(t *testing.T) {
	p := Problem{N: 16, Tol: 1e-2}
	want, err := SolveSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []locks.Kind{locks.KindSpin, locks.KindBlocking, locks.KindAdaptive} {
		res, err := Solve(Config{Problem: p, Workers: 4, LockKind: kind, Machine: sorMachine(4)})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Sweeps != want.Sweeps {
			t.Fatalf("%s: %d sweeps, want %d", kind, res.Sweeps, want.Sweeps)
		}
		if math.Abs(res.Residual-want.Residual) > 1e-12 {
			t.Fatalf("%s: residual %g, want %g", kind, res.Residual, want.Residual)
		}
	}
}

func TestParallelResidualLockContended(t *testing.T) {
	res, err := Solve(Config{
		Problem:  Problem{N: 24, Tol: 1e-2},
		Workers:  8,
		LockKind: locks.KindBlocking,
		Machine:  sorMachine(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.ResidualLock
	if st.Acquisitions == 0 {
		t.Fatal("residual lock never used")
	}
	// All workers fold at the same point of each sweep: bursty contention.
	if st.Contended == 0 {
		t.Fatal("residual lock never contended despite synchronized folds")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
}

func TestParallelRejectsTooManyWorkers(t *testing.T) {
	if _, err := Solve(Config{Problem: Problem{N: 4}, Workers: 8, Machine: sorMachine(8), LockKind: locks.KindSpin}); err == nil {
		t.Fatal("accepted more workers than rows")
	}
}

func TestParallelDeterministic(t *testing.T) {
	run := func() sim.Time {
		res, err := Solve(Config{
			Problem:  Problem{N: 16, Tol: 1e-2},
			Workers:  4,
			LockKind: locks.KindAdaptive,
			Machine:  sorMachine(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverge: %v vs %v", a, b)
	}
}
