// Command tspmem measures the memory of the TSP tables' largest solves.
// For each city count it runs `repro -j 1 -cities N table1` (seed 1) and
// prints one table row: Table 1's blocking expansions, the run's seconds,
// its peak RSS as the child's getrusage reports it, and a digest of its
// stdout, so that two builds' outputs can be compared by eye. A run whose
// resident set passes 3 GB, polled from /proc/<pid>/status, is killed and
// reported as stopped. Linux only.
//
// Usage (make tsp-memory builds repro and runs 25–28 cities):
//
//	go build -o bin/repro ./cmd/repro
//	go run ./cmd/tspmem bin/repro 25 26 27 28
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// guardKB is the resident-set size past which a run is stopped.
const guardKB = 3 << 20

// run is one measured repro run.
type run struct {
	expansions string // Table 1's blocking expansions, with separators
	seconds    float64
	peakKB     int64
	stopped    bool
	digest     string // the first 12 hex digits of stdout's SHA-256
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 3 {
		log.Fatal("usage: tspmem <repro binary> <cities>...")
	}
	repro := os.Args[1]
	fmt.Println("| Cities | Blocking expansions | Peak RSS | Seconds | stdout SHA-256 |")
	fmt.Println("|---|---|---|---|---|")
	for _, arg := range os.Args[2:] {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 3 {
			log.Fatalf("tspmem: %q is not a city count", arg)
		}
		r, err := measure(repro, n)
		if err != nil {
			log.Fatalf("tspmem: %d cities: %v", n, err)
		}
		if r.stopped {
			fmt.Printf("| %d | — | stopped past the %d GB guard | %.1f | — |\n", n, guardKB>>20, r.seconds)
			continue
		}
		fmt.Printf("| %d | %s | %.2f GB | %.1f | %s |\n", n, r.expansions, float64(r.peakKB)/(1<<20), r.seconds, r.digest)
	}
}

// measure runs repro on Table 1 at n cities, killing it past the guard.
func measure(repro string, n int) (run, error) {
	var out bytes.Buffer
	cmd := exec.Command(repro, "-j", "1", "-cities", strconv.Itoa(n), "table1")
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return run{}, err
	}
	// The poller marks the run stopped before killing it, so once Wait
	// returns, stopped tells a killed run from one that exited.
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if residentKB(cmd.Process.Pid) > guardKB {
					stopped.Store(true)
					_ = cmd.Process.Kill() // fails only if the run has exited
					return
				}
			}
		}
	}()
	err := cmd.Wait()
	close(done)
	r := run{seconds: time.Since(start).Seconds(), stopped: stopped.Load()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakKB = ru.Maxrss
	}
	if r.stopped {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	r.expansions = blockingExpansions(out.String())
	r.digest = fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))[:12]
	return r, nil
}

// residentKB reads a process's VmRSS, or 0 once it has exited.
func residentKB(pid int) int64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

var expansionsRE = regexp.MustCompile(`expansions: blocking=(\d+)`)

// blockingExpansions returns the blocking solve's expansion count from
// Table 1's output, with thousands separators, or "?" when it is missing.
func blockingExpansions(stdout string) string {
	m := expansionsRE.FindStringSubmatch(stdout)
	if m == nil {
		return "?"
	}
	s := m[1]
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
