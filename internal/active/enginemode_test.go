package active

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// monitorFingerprint renders every simulated metric one monitor workload
// produces, one per line: final virtual time, the application counter,
// monitor and scheduler counters, the latency digest, per-thread busy
// time, and per-module memory traffic. Byte-identical fingerprints mean
// no engine mode shifted a single simulated unit.
func monitorFingerprint(t *testing.T, mode string, em simtest.Mode) string {
	t.Helper()
	cfg := sim.Config{
		Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: 1,
	}
	sys := cthreads.New(cfg)
	em.Set(sys.Engine())
	mc := Config{Name: "em-mon"}
	switch mode {
	case "sync":
		mc.ExecMode = ExecSync
	case "flat":
		mc.ExecMode = ExecAsync
	case "server":
		mc.ExecMode = ExecAsync
		mc.Combiner = CombinerServer
	}
	m := New(sys, mc)
	counter := 0
	workers := make([]*cthreads.Thread, 6)
	for i := range workers {
		workers[i] = sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 8; j++ {
				m.Invoke(th, func(b *cthreads.Thread) {
					b.Advance(sim.Time(50 + b.Rand().Intn(300)))
					counter++
				})
				th.Advance(sim.Time(th.Rand().Intn(500)))
			}
		})
	}
	sys.Fork(0, "closer", func(th *cthreads.Thread) {
		for _, w := range workers {
			th.Join(w)
		}
		m.Shutdown(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var fp strings.Builder
	fmt.Fprintf(&fp, "now %d\ncounter %d\nstats %+v\nlatency %s\nsched %+v\n",
		sys.Now(), counter, m.Stats(), m.Latency().Summary(), sys.Stats())
	for _, th := range sys.Threads() {
		fmt.Fprintf(&fp, "busy %s: %d\n", th.Name(), th.Busy())
	}
	mach := sys.Machine()
	for n := 0; n < cfg.Nodes; n++ {
		fmt.Fprintf(&fp, "module %d: accesses=%d queue-delay=%d\n", n, mach.ModuleAccesses(n), mach.ModuleQueueDelay(n))
	}
	return fp.String()
}

// TestMonitorEngineModeDifferential proves every monitor execution mode
// produces byte-identical simulated metrics in every engine mode. The
// futures and combiners read only virtual-time state, so no engine fast
// path may shift a single unit of any metric.
func TestMonitorEngineModeDifferential(t *testing.T) {
	for _, mode := range []string{"sync", "flat", "server"} {
		t.Run(mode, func(t *testing.T) {
			simtest.Check(t, simtest.Serial(), func(em simtest.Mode) string {
				return monitorFingerprint(t, mode, em)
			})
		})
	}
}
