package active

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// fuzzRun executes one schedule of monitor operations derived from data
// and returns the final application state plus per-op execution counts.
// Each byte drives one worker decision: think time, whether to detach
// (Submit and Wait later, possibly after more submissions) or Invoke
// inline. The monitor methods append to a shared journal; mutual
// exclusion, exactly-once execution, and the journal's multiset content
// must match the synchronous reference for every interleaving.
func fuzzRun(t *testing.T, data []byte, mode int64, combiner string) (counter int, execs []int, journalLen int) {
	t.Helper()
	const workers = 4
	sys := testSys(workers)
	m := New(sys, Config{Name: "fuzz-mon", ExecMode: mode, Combiner: combiner})
	if err := m.Object().Attrs.Set(AttrBatchLimit, 3, core.OwnerSelf); err != nil {
		t.Fatal(err)
	}
	nOps := len(data)
	execs = make([]int, nOps)
	var journal []int
	inside := false
	threads := make([]*cthreads.Thread, workers)
	for w := 0; w < workers; w++ {
		threads[w] = sys.Fork(w, fmt.Sprintf("w%d", w), func(th *cthreads.Thread) {
			var backlog []*Future
			for i := w; i < nOps; i += workers {
				op := i
				b := data[i]
				body := func(bt *cthreads.Thread) {
					if inside {
						t.Errorf("overlapped execution at op %d", op)
					}
					inside = true
					bt.Advance(sim.Time(20 + int(b%7)*30))
					inside = false
					execs[op]++
					journal = append(journal, op)
					counter++
				}
				th.Advance(sim.Time(int(b>>4) * 50)) // think
				switch {
				case mode == ExecAsync && b&1 == 1:
					// Detach: submit now, wait after up to two more ops.
					backlog = append(backlog, m.Submit(th, body))
					if len(backlog) > 2 {
						backlog[0].Wait(th)
						backlog = backlog[1:]
					}
				default:
					m.Invoke(th, body)
				}
			}
			for _, f := range backlog {
				f.Wait(th)
			}
		})
	}
	if combiner == CombinerServer {
		sys.Fork(0, "closer", func(th *cthreads.Thread) {
			for _, w := range threads {
				th.Join(w)
			}
			m.Shutdown(th)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return counter, execs, len(journal)
}

// FuzzMonitorInterleavings drives random submit/wait interleavings
// through the flat and server combiners and compares the outcome with
// the synchronous reference: same total effect, every operation executed
// exactly once, and each configuration deterministic run to run.
func FuzzMonitorInterleavings(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x8f, 0x01, 0xfe, 0x77})
	f.Add([]byte("interleave-me"))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 2, 3, 5, 8, 13, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		refCount, refExecs, refJournal := fuzzRun(t, data, ExecSync, CombinerFlat)
		for _, e := range refExecs {
			if e != 1 {
				t.Fatalf("sync reference executed an op %d times", e)
			}
		}
		for _, cfg := range []struct {
			name     string
			combiner string
		}{{"flat", CombinerFlat}, {"server", CombinerServer}} {
			count, execs, journal := fuzzRun(t, data, ExecAsync, cfg.combiner)
			if count != refCount || journal != refJournal {
				t.Fatalf("%s: state %d/%d ops diverged from sync reference %d/%d",
					cfg.name, count, journal, refCount, refJournal)
			}
			for op, e := range execs {
				if e != 1 {
					t.Fatalf("%s: op %d executed %d times, want exactly once", cfg.name, op, e)
				}
			}
			// Determinism: an identical rerun must agree exactly.
			count2, _, _ := fuzzRun(t, data, ExecAsync, cfg.combiner)
			if count2 != count {
				t.Fatalf("%s: nondeterministic across identical runs", cfg.name)
			}
		}
	})
}
