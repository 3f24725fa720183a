package experiments

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/sor"
)

// BarrierRow compares the barrier waiting policies in one scheduling
// regime of the SOR application.
type BarrierRow struct {
	Regime   string
	Spin     sim.Time
	Sleep    sim.Time
	Adaptive sim.Time
}

// BarrierComparison applies the adaptive-object model to a second
// operating-system abstraction (§7: "use the concept of closely-coupled
// adaptation in other operating system components"): the SOR sweep
// barrier. Its built-in monitor senses whether arrivals had co-runnable
// threads on their processors — the §2 criterion for when busy-waiting is
// wrong — and the policy moves the poll budget accordingly. With private
// processors the adaptive barrier converges to polling; multiprogrammed,
// it converges to a short grace poll followed by sleeping, beating both
// static barriers.
func BarrierComparison(e Env) ([]BarrierRow, error) {
	regimes := []struct {
		name    string
		procs   int
		quantum sim.Time
	}{
		{"1 worker/processor", 8, 0},
		{"2 workers/processor", 4, 500 * sim.Microsecond},
	}
	kinds := []string{"spin", "sleep", "adaptive"}
	// Flatten the (regime × barrier-kind) grid: all six solves are
	// independent simulations.
	cells, err := sweep(e, len(regimes)*len(kinds), func(i int) (sim.Time, error) {
		reg := regimes[i/len(kinds)]
		kind := kinds[i%len(kinds)]
		res, err := sor.Solve(sor.Config{
			Problem:     sor.Problem{N: 32, Tol: 1e-2},
			Workers:     8,
			Procs:       reg.procs,
			LockKind:    locks.KindAdaptive,
			BarrierKind: kind,
			Machine:     sim.Config{Quantum: reg.quantum},
		})
		if err != nil {
			return 0, fmt.Errorf("barrier %s/%s: %w", reg.name, kind, err)
		}
		return res.Elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]BarrierRow, 0, len(regimes))
	for r, reg := range regimes {
		rows = append(rows, BarrierRow{
			Regime:   reg.name,
			Spin:     cells[r*len(kinds)],
			Sleep:    cells[r*len(kinds)+1],
			Adaptive: cells[r*len(kinds)+2],
		})
	}
	return rows, nil
}
