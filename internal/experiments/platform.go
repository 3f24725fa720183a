package experiments

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PlatformRow reports, for one machine preset, the remote lock-operation
// cost of the spin and blocking locks and the elapsed time of a contended
// multiprogrammed workload under each waiting policy.
type PlatformRow struct {
	Platform      string
	SpinOpRemote  sim.Time
	BlockOpRemote sim.Time
	SpinElapsed   sim.Time
	BlockElapsed  sim.Time
	SpinOverBlock float64
}

// PlatformRetargeting reproduces §2's point about re-targeting lock
// objects across architectural platforms (UMA → NUMA → NORMA): as the
// remote-reference penalty grows, busy-waiting on a remote word gets
// relatively worse, shifting the preferred waiting policy toward
// sleeping. Rows are ordered UMA, GP1000 (NUMA), NORMA. The presets are
// independent machines; they fan out over up to e.Jobs workers.
func PlatformRetargeting(e Env) ([]PlatformRow, error) {
	presets := []struct {
		name string
		cfg  sim.Config
	}{
		{"UMA", sim.UMAConfig()},
		{"GP1000 (NUMA)", sim.GP1000Config()},
		{"NORMA-like", sim.NORMAConfig()},
	}
	return sweep(e, len(presets), func(i int) (PlatformRow, error) {
		p := presets[i]
		opts := Env{Machine: p.cfg}.lockDefaults()
		spinOp, err := measureOp(opts, locks.KindSpin, 1, "lock")
		if err != nil {
			return PlatformRow{}, fmt.Errorf("platform %s spin op: %w", p.name, err)
		}
		blockOp, err := measureOp(opts, locks.KindBlocking, 1, "lock")
		if err != nil {
			return PlatformRow{}, fmt.Errorf("platform %s blocking op: %w", p.name, err)
		}

		m := p.cfg
		m.Quantum = 500 * sim.Microsecond
		cfg := workload.CSConfig{
			Procs: 4, Threads: 8, Iters: 20,
			CSLength: 60 * sim.Microsecond, LocalWork: 200 * sim.Microsecond,
			Jitter:  30 * sim.Microsecond,
			Machine: m,
		}
		spin, err := workload.RunCS(cfg, workload.SpinStrategy())
		if err != nil {
			return PlatformRow{}, fmt.Errorf("platform %s spin workload: %w", p.name, err)
		}
		block, err := workload.RunCS(cfg, workload.BlockStrategy())
		if err != nil {
			return PlatformRow{}, fmt.Errorf("platform %s block workload: %w", p.name, err)
		}
		return PlatformRow{
			Platform:      p.name,
			SpinOpRemote:  spinOp,
			BlockOpRemote: blockOp,
			SpinElapsed:   spin.Elapsed,
			BlockElapsed:  block.Elapsed,
			SpinOverBlock: float64(spin.Elapsed) / float64(block.Elapsed),
		}, nil
	})
}
