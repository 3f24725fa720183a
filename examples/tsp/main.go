// TSP example: solve one Euclidean Travelling Sales Person instance four
// ways — sequentially, and with the paper's three parallel organizations
// on a 10-processor simulated multiprocessor — and compare.
//
//	go run ./examples/tsp
package main

import (
	"fmt"
	"log"

	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/tsp"
)

func main() {
	log.SetFlags(0)

	in := tsp.NewEuclideanInstance(14, 7)
	fmt.Printf("instance: %s\n\n", in)

	seq, err := tsp.SolveSequentialSim(in, sim.Config{Nodes: 1}, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s cost=%-6d time=%-12s expansions=%d\n",
		"sequential", seq.Tour.Cost, seq.Elapsed, seq.Expansions)

	for _, org := range []tsp.Organization{tsp.OrgCentralized, tsp.OrgDistributed, tsp.OrgDistributedLB} {
		res, err := tsp.Solve(tsp.Config{
			Instance:         in,
			Searchers:        10,
			Org:              org,
			LockKind:         locks.KindAdaptive,
			StepsPerWorkUnit: 60,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s cost=%-6d time=%-12s expansions=%-6d speedup=%.1f×\n",
			org, res.Tour.Cost, res.Elapsed, res.Expansions,
			float64(seq.Elapsed)/float64(res.Elapsed))
	}

	fmt.Println("\nAll four solvers find the same optimal tour; they differ only in")
	fmt.Println("virtual time and in how much of the search tree they touch.")
}
