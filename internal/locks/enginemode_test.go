package locks

import (
	"testing"

	"repro/internal/simtest"
)

// TestLockEngineModeDifferential runs the two locks whose decisions carry
// history, the predictive mutable lock and the NUMA cohort lock, four
// times longer than TestSpinBatchingLockDifferential. The longer run lets
// the mutable lock's estimator move from spinning to blocking on the
// quantum machine, and lets quantum preemption reach a cohort lock holder
// there, which the short run never does. Both locks read only
// virtual-time state, so every engine mode must reproduce the serial
// oracle's fingerprint under the fast, hot-spot and quantum machines.
func TestLockEngineModeDifferential(t *testing.T) {
	historyKinds := map[string]bool{"mutable": true, "cohort": true}
	for _, tc := range spinBatchConfigs() {
		for _, b := range spinBatchBuilders() {
			if !historyKinds[b.name] {
				continue
			}
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
					return runLockWorkload(t, tc.cfg, b, tc.threads, 24, m)
				})
			})
		}
	}
}
