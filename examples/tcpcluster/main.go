// TCP cluster: the protocols over real sockets, with a Byzantine node.
//
// Boots a 6-node TCP mesh on localhost, establishes local authentication
// over the wire, then runs failure discovery twice: once failure-free and
// once with node 2 replaced by a silent Byzantine process. The second run
// shows discovery working over a real network exactly as in the
// simulator — the cluster is the same core.Cluster, on the mesh engine.
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	cfg := model.Config{N: 6, T: 2}
	mesh, err := transport.BootLoopback(context.Background(), cfg.N)
	if err != nil {
		log.Fatal(err)
	}
	defer mesh.Close()
	cluster, err := core.New(cfg, core.WithEngine(transport.MeshEngine(mesh.Endpoints)))
	if err != nil {
		log.Fatal(err)
	}

	// Local authentication over TCP.
	kd, err := cluster.EstablishAuthentication()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key distribution over TCP: %s\n\n", kd.Snapshot)

	// Run 1: failure-free. Run 2: node 2 (a relay) turns Byzantine-silent;
	// the faulty node reports nothing, so only correct outcomes print.
	runs := []struct {
		label string
		opts  []core.RunOption
	}{
		{"failure-free", nil},
		{"node P2 silent", []core.RunOption{core.WithProcess(2, sim.Silent{})}},
	}
	for i, run := range runs {
		rep, err := cluster.RunFailureDiscovery([]byte("replicate: x=42"), run.opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d (%s):\n", i+1, run.label)
		for _, o := range rep.Outcomes {
			fmt.Printf("  %s\n", o)
		}
		fmt.Println()
	}
}
