// Quickstart: the paper's contribution in a dozen lines.
//
// Establish local authentication once (3n(n−1) messages, no trusted
// dealer, any number of Byzantine nodes), then run failure discovery for
// n−1 messages per run instead of the non-authenticated O(n·t).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/model"
)

func main() {
	// A cluster of 8 nodes that must tolerate up to 2 Byzantine faults.
	cluster, err := core.New(model.Config{N: 8, T: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 — local authentication (paper Fig. 1). Every node generates
	// its own key pair and proves possession to every peer with a nonce
	// challenge. No trusted dealer, no prior agreement.
	kd, err := cluster.EstablishAuthentication()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local authentication established: %d messages in %d rounds\n",
		kd.Snapshot.Messages, kd.Snapshot.CommunicationRounds)

	// Step 2 — authenticated failure discovery (paper Fig. 2). The sender
	// P0 proposes a value; every correct node either accepts it or
	// discovers that a failure occurred.
	rep, err := cluster.RunFailureDiscovery([]byte("commit block #1"))
	if err != nil {
		log.Fatal(err)
	}
	value, ok := model.AgreedValue(rep.Outcomes)
	fmt.Printf("failure discovery: %d messages, agreed=%v value=%q\n",
		rep.Snapshot.Messages, ok, value)

	// Step 3 — run it as often as you like; the linear per-run cost is
	// the whole point.
	for i := 2; i <= 4; i++ {
		if _, err := cluster.RunFailureDiscovery([]byte(fmt.Sprintf("commit block #%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after %d runs: %d total messages (%d were the one-off key distribution)\n",
		cluster.Ledger().FDRuns(), cluster.Ledger().TotalMessages(), cluster.Ledger().KeyDistMessages())
}
