package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// Tiny versions of the four workloads: the same entry points at sizes
// that finish in well under a second.
var (
	tinyTSP     = tspConfig{cities: 8, searchers: 2, count: 2, band: [2]int{1, 200}, total: [2]int{10, 400}, orgs: []tsp.Organization{tsp.OrgCentralized, tsp.OrgDistributed}}
	tinyFig1    = fig1Config{lengths: []sim.Time{50 * sim.Microsecond}, strategies: []workload.Strategy{workload.SpinStrategy(), workload.MutableStrategy()}}
	tinySharded = shardedConfig{nodes: 16, shards: 2, workers: 2, rounds: 2}
	tinyMonitor = monitorConfig{modes: []string{"sync", "flat"}, callers: []int{2}}
)

func tinySpecs() []spec {
	return []spec{tspTables(tinyTSP), fig1Multiprog(tinyFig1), shardedRing(tinySharded), monitorHotspot(tinyMonitor)}
}

// TestWorkloadsTraced runs one traced rep of each tiny workload: every
// request must pass its oracle and feed the counters of its layers.
func TestWorkloadsTraced(t *testing.T) {
	for _, s := range tinySpecs() {
		reqs, secs, _, err := setup(s, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(secs) < minSetupReps {
			t.Errorf("%s: %d set-up reps", s.name, len(secs))
		}
		ph := runPhase(reqs, s.clients, 0, true)
		if ph.failed != 0 || ph.attempted != len(reqs) {
			t.Fatalf("%s: %d of %d requests failed (%v); want one rep of %d", s.name, ph.failed, ph.attempted, ph.failures, len(reqs))
		}
		if len(ph.spans) != 1+1+len(reqs) {
			t.Errorf("%s: %d spans, want phase + rep + %d requests", s.name, len(ph.spans), len(reqs))
		}
		c := ph.counters
		var moved bool
		switch s.name {
		case "tsp-tables":
			moved = c.expansions > 0 && c.dispatches > 0 && c.lockAcq > 0 && c.ctxSwitches > 0
		case "fig1-multiprog":
			moved = c.dispatches > 0 && c.lockSpinIters > 0 && c.observedSpinIters == c.lockSpinIters
		case "sharded-ring":
			moved = c.crossMsgs > 0 && c.wakeups > 0
		case "monitor-hotspot":
			moved = c.batches > 0 && c.maxBatch > 0
		}
		if !moved {
			t.Errorf("%s: counters did not move: %+v", s.name, c)
		}
	}
}

// TestCorruptedFingerprintCountsAsFailure: a request whose expected
// fingerprint is wrong, or whose entry point fails, is counted as failed
// and the phase still runs every request.
func TestCorruptedFingerprintCountsAsFailure(t *testing.T) {
	s := monitorHotspot(tinyMonitor)
	reqs, _, _, err := setup(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs[0].want = "corrupted"
	reqs = append(reqs, request{label: "broken", run: func(*counters) (outcome, error) {
		return outcome{}, errors.New("entry point failed")
	}})
	for _, traced := range []bool{false, true} {
		ph := runPhase(reqs, 2, 0, traced)
		if ph.attempted != len(reqs) || ph.failed != 2 {
			t.Fatalf("traced=%v: attempted %d failed %d, want %d and 2", traced, ph.attempted, ph.failed, len(reqs))
		}
		joined := strings.Join(ph.failures, "\n")
		if !strings.Contains(joined, reqs[0].label) || !strings.Contains(joined, "entry point failed") {
			t.Errorf("traced=%v: failures %q", traced, joined)
		}
		if m := e2eMetrics([]float64{1}, ph); m["ok_frac"].Value != 1-2/float64(len(reqs)) {
			t.Errorf("ok_frac = %v", m["ok_frac"].Value)
		}
	}
}

// TestTSPSizingSeedRobust: the instance sets of different seeds differ but
// carry the same serial work, so a held-out seed gives a workload of the
// same size.
func TestTSPSizingSeedRobust(t *testing.T) {
	var totals []int
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		picked, err := defaultTSP.selectInstances(seed)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range picked {
			total += p.serial.Expansions
			if seen[p.in.Seed] {
				t.Errorf("seed %d reuses instance %x", seed, p.in.Seed)
			}
			seen[p.in.Seed] = true
		}
		totals = append(totals, total)
	}
	lo, hi := totals[0], totals[0]
	for _, v := range totals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if float64(hi) > 1.1*float64(lo) {
		t.Fatalf("serial expansion totals %v differ by more than 10%%", totals)
	}
}

// TestSetupRejectsNondeterminism: set-up reps that build different
// fingerprints are an error, not a silently chosen oracle.
func TestSetupRejectsNondeterminism(t *testing.T) {
	n := 0
	s := spec{name: "drifting", clients: 1, build: func(uint64, int) ([]request, error) {
		n++
		return []request{{label: "r", want: fmt.Sprint(n)}}, nil
	}}
	if _, _, _, err := setup(s, 1); err == nil {
		t.Fatal("setup accepted reps with different fingerprints")
	}
}

// benchDefinition reads the repository's BENCHMARK.json.
func benchDefinition(t *testing.T) benchDef {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestPrintsEveryDeclaredMetric runs the command as the benchmark harness
// does and checks that each mode prints exactly the metrics BENCHMARK.json
// declares for it, each with its unit, and ends with the JSON summary.
func TestPrintsEveryDeclaredMetric(t *testing.T) {
	def := benchDefinition(t)
	for trace, declared := range [][]metricDef{def.EndToEnd, def.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "monitor-hotspot", "--seed", "3", "--seconds", "0", "--trace", fmt.Sprint(trace), "--tracedir", t.TempDir()}
		if rc := run(args, &stdout, &stderr); rc != 0 {
			t.Fatalf("trace=%d: exit %d: %s", trace, rc, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var sum map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("trace=%d: last line is not JSON: %v", trace, err)
		}
		if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
			t.Fatalf("trace=%d: summary keys: %s", trace, lines[len(lines)-1])
		}
		var metrics map[string]metric
		json.Unmarshal(sum["metrics"], &metrics)
		if len(metrics) != len(declared) || len(lines) != len(declared)+1 {
			t.Errorf("trace=%d: %d metrics and %d lines for %d declared", trace, len(metrics), len(lines), len(declared))
		}
		for _, d := range declared {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%d: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
			if !strings.Contains(stdout.String(), fmt.Sprintf("monitor-hotspot %s ", d.Name)) {
				t.Errorf("trace=%d: no text line for %s", trace, d.Name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "monitor-hotspot", "-trace", "2"},
		{"-workload", "monitor-hotspot", "-seconds", "-1"},
		{"-compare", "only-one"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, rc, stdout.String())
		}
	}
}
