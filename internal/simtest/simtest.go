// Package simtest is the engine-mode matrix: the one place that says
// which engine modes exist and which of them is the oracle. Every
// fast path of the simulator (inline wakeups, batched spins and spin
// epochs, the sharded engine) must reproduce the reference slow path
// byte for byte. A differential suite renders a workload's
// observations as a fingerprint, one observation per line, and Check
// runs it in every mode against the oracle.
//
// The package does not import sim, because sim's own internal tests
// import it; Engine names the two setters a mode needs.
package simtest

import (
	"fmt"
	"strings"
	"testing"
)

// Engine is the part of a simulation engine (*sim.Engine) a Mode sets.
type Engine interface {
	SetInlineWakeups(on bool)
	SetBatchedSpins(on bool)
}

// Mode is one engine configuration a differential run uses.
type Mode struct {
	// Shards is 0 for the serial engine. Otherwise the workload runs on
	// a sim.Sharded or cthreads.Cluster partition of this many shards,
	// advanced by up to Workers host goroutines.
	Shards, Workers int
	// Inline and Batched turn on the inline-wakeup and batched-spin fast
	// paths of every engine in the run.
	Inline, Batched bool
}

// Set puts e in m's inline-wakeup and batched-spin modes.
func (m Mode) Set(e Engine) {
	e.SetInlineWakeups(m.Inline)
	e.SetBatchedSpins(m.Batched)
}

func (m Mode) String() string {
	engine := "serial"
	if m.Shards > 0 {
		engine = fmt.Sprintf("shards=%d workers=%d", m.Shards, m.Workers)
	}
	return fmt.Sprintf("%s inline=%v batched=%v", engine, m.Inline, m.Batched)
}

// fastPaths is the inline wakeups × batched spins product, the oracle
// (both off) first.
func fastPaths(shards, workers int) []Mode {
	var out []Mode
	for _, batched := range []bool{false, true} {
		for _, inline := range []bool{false, true} {
			out = append(out, Mode{Shards: shards, Workers: workers, Inline: inline, Batched: batched})
		}
	}
	return out
}

// Serial is the matrix of a workload on one serial engine: the four
// combinations of the two fast paths, the oracle first.
func Serial() []Mode { return fastPaths(0, 0) }

// Sharded is the matrix of a workload built on sim.Sharded or
// cthreads.Cluster over nodes nodes: Serial, then the four fast-path
// combinations at every shard count in {1, 2, 4, 8} up to nodes, each
// with 1, 2 and 4 host workers.
func Sharded(nodes int) []Mode {
	out := Serial()
	for _, shards := range []int{1, 2, 4, 8} {
		if shards > nodes {
			break
		}
		for _, workers := range []int{1, 2, 4} {
			out = append(out, fastPaths(shards, workers)...)
		}
	}
	return out
}

// Check runs the workload in modes[0], the reference, and in every
// other mode, and fails t for each mode whose fingerprint differs,
// naming the mode, the first differing line and both line counts.
func Check(t testing.TB, modes []Mode, run func(Mode) string) {
	t.Helper()
	ref := run(modes[0])
	if ref == "" {
		t.Fatalf("%v: empty fingerprint", modes[0])
	}
	want := strings.Split(ref, "\n")
	for _, m := range modes[1:] {
		got := strings.Split(run(m), "\n")
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		if i < len(got) || i < len(want) {
			t.Errorf("%v diverges from %v at line %d:\n  got:  %s\n  want: %s\n(%d lines, reference %d)",
				m, modes[0], i+1, line(got, i), line(want, i), len(got), len(want))
		}
	}
}

// line returns lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return fmt.Sprintf("%q", lines[i])
	}
	return "(end of fingerprint)"
}
