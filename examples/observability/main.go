// Observability walkthrough: the obs event layer, the invariance
// contract, and the fdreport analytics on top.
//
// The repo's reports are deterministic — a campaign report is a pure
// function of its Spec, byte for byte. That is exactly why they carry
// no wall-clock timing: timing varies run to run, so it lives in a
// separate channel. This example shows that channel end to end:
//
//  1. run the same campaign with and without a recorder and verify the
//     reports are byte-identical (observation is a pure reader),
//  2. look at the per-instance spans the recorder captured — the
//     wall-time, verdict, and setup-cache outcome the report omits,
//  3. write a JSONL trace file and aggregate it the way
//     `fdreport trace` does,
//  4. attach the engine tracer to a single cluster run for per-round
//     spans.
//
// Run it with:
//
//	go run ./examples/observability
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sig"
)

func main() {
	spec := campaign.Spec{
		Name:        "observability-demo",
		Protocols:   []string{"chain", "fdba"},
		Sizes:       []int{4},
		Schemes:     []string{sig.SchemeToy},
		Adversaries: []string{campaign.AdvNone, campaign.AdvCrashRelay},
		SeedBase:    1995,
		SeedCount:   5,
	}

	// 1. The invariance: tracing on vs off, same report bytes.
	plain, err := campaign.Run(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	observed, err := campaign.Run(spec, 2, campaign.WithObserver(rec))
	if err != nil {
		log.Fatal(err)
	}
	rec.Flush()
	jPlain, _ := plain.CanonicalJSON()
	jObserved, _ := observed.CanonicalJSON()
	fmt.Printf("reports byte-identical with tracing on/off: %v (%d bytes)\n\n",
		bytes.Equal(jPlain, jObserved), len(jPlain))

	// 2. What the trace knows that the report does not: wall-time per
	// instance, verdict, and whether the amortized setup cache served it.
	spans := sink.Scoped("campaign.instance")
	fmt.Printf("captured %d campaign.instance events; a few closed spans:\n", len(spans))
	shown := 0
	for _, e := range spans {
		if e.Kind != obs.KindEnd || shown == 3 {
			continue
		}
		fmt.Printf("  inst=%-2d proto=%-5s %8.3fms  %s\n",
			e.Inst, e.Proto, float64(e.Dur)/1e6, e.Attrs)
		shown++
	}

	// 3. The operator path: a JSONL trace file, aggregated by scope —
	// this is `fdcampaign -trace-out t.jsonl` + `fdreport trace t.jsonl`.
	path := filepath.Join(os.TempDir(), "observability-demo.jsonl")
	jsonl, err := obs.CreateJSONL(path)
	if err != nil {
		log.Fatal(err)
	}
	fileRec := obs.NewRecorder(jsonl)
	if _, err := campaign.Run(spec, 2, campaign.WithObserver(fileRec)); err != nil {
		log.Fatal(err)
	}
	fileRec.Close() // flushes the ring and the file buffer
	events, err := report.LoadTrace(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (%d events); aggregated by scope:\n", path, len(events))
	report.TraceTable(report.AggregateTrace(events)).Render(os.Stdout)
	os.Remove(path)

	// 4. Below the campaign: a single cluster lifecycle with the engine
	// tracer attached emits spans for the keydist phase, the FD run, and
	// every simulator round in between.
	clusterSink := &obs.MemorySink{}
	clusterRec := obs.NewRecorder(clusterSink)
	cluster, err := core.New(model.Config{N: 4, T: 1},
		core.WithScheme(sig.SchemeToy), core.WithObserver(clusterRec))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.EstablishAuthentication(); err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunFailureDiscovery([]byte("observe me")); err != nil {
		log.Fatal(err)
	}
	clusterRec.Flush()
	fmt.Printf("\nsingle cluster lifecycle, by scope:\n")
	report.TraceTable(report.AggregateTrace(clusterSink.Events())).Render(os.Stdout)
}
