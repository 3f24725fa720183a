// Client-server example: the same producer-consumer program run under the
// reconfigurable lock's three scheduler variants. The lock scheduler —
// not the program — decides how quickly the server gets the lock, and
// with it how far the request backlog grows.
//
//	go run ./examples/clientserver
package main

import (
	"fmt"
	"log"

	"repro/internal/locks"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("8 clients produce requests under one lock; 1 server consumes them.")
	fmt.Println()
	fmt.Printf("%-10s %-14s %-18s %s\n", "scheduler", "completion", "mean response", "peak backlog")
	for _, sched := range []string{locks.SchedFCFS, locks.SchedPriority, locks.SchedHandoff} {
		res, err := workload.RunClientServer(workload.ClientServerConfig{Scheduler: sched})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %-14s %-18s %d\n", sched, res.Elapsed, res.MeanResponse, res.QueuePeak)
	}
	fmt.Println()
	fmt.Println("Under FCFS the server waits behind every client and the backlog —")
	fmt.Println("and with it every response time — grows; priority and handoff keep")
	fmt.Println("the bottleneck thread supplied with the lock.")
}
