package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric and its unit. The tables below are the
// program's side of BENCHMARK.json; the package test holds the two equal.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them: an operation is a request (serve_*), a sweep
// (campaign_grid) or an instance (eig_grid).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inst_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_ms_per_inst", "ms"},
	{"allocs_per_inst", "count"},
	{"alloc_kb_per_inst", "KiB"},
	{"retained_heap_mb", "MiB"},
}

// perLayer lists the single-layer metrics of the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, name := range names {
			defs = append(defs, metricDef{name, unit})
		}
	}
	for _, suffix := range []string{".ed25519", ".hmac"} {
		for _, rung := range ladderRungs {
			add("ns", rung+suffix)
		}
		add("ns", "sig.sign_ns"+suffix, "sig.verify_ns"+suffix, "sig.keygen_ns"+suffix)
	}
	add("ns", "sig.chain_extend_ns", "sig.chain_verify_cold_ns", "sig.chain_verify_warm_ns", "sig.floor_ns")
	add("count", "sig.signs_per_inst", "sig.tests_per_inst")
	add("ratio", "sig.floor_ratio")
	add("ns", "keydist.roundtrip_ns", "core.establish_ns.n8", "core.establish_ns.n16")
	add("count", "keydist.messages_per_setup")
	add("ns", "protocol.setup_miss_ns", "protocol.setup_hit_ns")
	add("ratio", "protocol.setup_cache_hit_ratio")
	add("ns", "campaign.expand_ns", "campaign.report_json_ns")
	for _, name := range churnProtocols {
		add("ns", "campaign.instance_ns_p50."+name)
	}
	add("ratio", "campaign.parallel_efficiency")
	add("count", "campaign.messages_per_inst")
	add("B", "campaign.bytes_per_inst")
	add("ratio", "adversary.overhead_ratio", "netcond.overhead_ratio", "sched.dispatch_overhead_ratio")
	add("ns", "ba.eig_run_ns.n16_t3", "ba.eig_run_ns.n64_t2", "ba.eig_run_ns.n128_t2")
	add("count", "ba.eig_entries_per_run.n64_t2")
	add("ns", "ba.oral_marshal_ns_per_entry", "sim.engine_ns_per_msg")
	add("us", "service.do_us_p50", "service.do_us_p99", "service.queue_us_p50", "service.queue_us_p99",
		"service.run_us_p50", "service.run_us_p99", "service.wire_us_p50")
	add("ratio", "service.pool_hit_ratio")
	add("count", "service.pool_cells", "service.rejected")
	add("ns", "transport.frame_rtt_ns.pipe", "transport.frame_rtt_ns.tcp")
	add("B", "transport.bytes_per_inst")
	add("%", "trace.overhead_pct")
	return defs
}()

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or the one
// above it (the benchmark runs from its own directory, one below the
// repository root).
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, nil
	}
	return spec, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// expectedOutputs is expected.json: for one seed, the digest of each
// workload's first outputs (see session.pinnedDigest).
type expectedOutputs struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadExpected() (expectedOutputs, error) {
	var exp expectedOutputs
	data, err := os.ReadFile("expected.json")
	if err != nil {
		return exp, err
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return exp, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}
