package tsp

import (
	"testing"

	"repro/internal/locks"
)

// BenchmarkSolveSerial measures the native LMSK solver (no simulation).
func BenchmarkSolveSerial(b *testing.B) {
	in := NewEuclideanInstance(14, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SolveSerial(in)
	}
}

// BenchmarkExpand measures one LMSK node expansion. fresh keeps every
// child, so each expansion allocates its children; recycled releases
// them, the way the solvers release the nodes they are done with.
func BenchmarkExpand(b *testing.B) {
	in := NewEuclideanInstance(16, 1)
	for _, recycle := range []bool{false, true} {
		name := "fresh"
		if recycle {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			root := NewRoot(in)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := root.Expand()
				if recycle {
					for _, c := range out.Children {
						c.Release()
					}
				}
			}
		})
	}
}

// BenchmarkParallelSolveSimWallClock measures how much wall-clock time the
// simulator spends per full parallel solve (the cost of running the
// reproduction, not a paper quantity).
func BenchmarkParallelSolveSimWallClock(b *testing.B) {
	in := NewEuclideanInstance(13, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Solve(Config{
			Instance:         in,
			Searchers:        8,
			Org:              OrgCentralized,
			LockKind:         locks.KindAdaptive,
			StepsPerWorkUnit: 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
