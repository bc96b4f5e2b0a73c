package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the program emits. BENCHMARK.json lists the
// same names; TestBenchmarkJSONAgreement fails when the two differ.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// workloadNames are the four workloads, in the order the suite runs them.
var workloadNames = []string{"serve_hot", "serve_cold", "capture_batch", "capture_follow"}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them (the benchmark contract requires it), so each is defined on
// both paths; bench/README.md says what it means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_mb_peak", "MiB", "lower"},
}

// perLayer are the numbers of single layers (layer = package name) plus
// the benchmark's own validity numbers. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	// Serve path, timed run.
	{"serve.lat_p50_ms_low", "ms", "lower"},
	{"serve.lat_p75_ms_low", "ms", "lower"},
	{"serve.lat_p90_ms_low", "ms", "lower"},
	{"serve.lat_p99_ms_low", "ms", "lower"},
	{"serve.lat_p50_ms_high", "ms", "lower"},
	{"serve.lat_p99_ms_high", "ms", "lower"},
	{"serve.over_limit_ratio", "ratio", "lower"},
	{"serve.max_rate_qps", "1/s", "higher"},
	{"recursor.cpu_us_per_query", "us", "lower"},
	{"authserver.cpu_us_per_query", "us", "lower"},
	{"recursor.hit_ratio", "ratio", "higher"},
	// Serve path, layer replays.
	{"udpengine.echo_ns_per_dgram", "ns", "lower"},
	{"udpengine.syscalls_per_dgram", "count", "lower"},
	{"dnswire.view_ns_per_msg", "ns", "lower"},
	{"dnswire.view_allocs", "count", "lower"},
	{"dnswire.unpack_ns_per_msg", "ns", "lower"},
	{"dnswire.unpack_allocs", "count", "lower"},
	{"dnswire.pack_ns_per_msg", "ns", "lower"},
	{"dnswire.pack_allocs", "count", "lower"},
	{"recursor.cache_get_ns", "ns", "lower"},
	{"recursor.handlewire_hit_ns", "ns", "lower"},
	{"recursor.locked_gets", "count", "lower"},
	{"recursor.cache_fill_ns", "ns", "lower"},
	{"recursor.evictions", "count", "lower"},
	{"recursor.handlewire_miss_ns", "ns", "lower"},
	{"resolver.exchange_us", "us", "lower"},
	{"authserver.handle_ns_per_query", "ns", "lower"},
	{"authserver.handle_allocs", "count", "lower"},
	{"zonedb.delegation_ns", "ns", "lower"},
	// Capture path, timed run.
	{"capture.windows_closed", "count", "higher"},
	{"capture.window_lag_ms_p50", "ms", "lower"},
	{"capture.window_lag_ms_p95", "ms", "lower"},
	// Capture path, layer replays.
	{"pcapio.read_ns_per_pkt", "ns", "lower"},
	{"layers.decode_ns_per_pkt", "ns", "lower"},
	{"astrie.lookup_ns", "ns", "lower"},
	{"entrada.flowshard_ns", "ns", "lower"},
	{"entrada.handle_ns_per_pkt", "ns", "lower"},
	{"entrada.allocs_per_pkt", "count", "lower"},
	{"entrada.finish_ms", "ms", "lower"},
	{"entrada.report_ms", "ms", "lower"},
	{"pipeline.run_w1_pkts_per_s", "1/s", "higher"},
	{"pipeline.run_wN_pkts_per_s", "1/s", "higher"},
	{"pipeline.run_telemetry_pkts_per_s", "1/s", "higher"},
	{"pipeline.stream_pkts_per_s", "1/s", "higher"},
	{"pipeline.stream_ckpt_pkts_per_s", "1/s", "higher"},
	{"entrada.querycounts_us", "us", "lower"},
	{"entrada.marshal_state_ms", "ms", "lower"},
	{"entrada.state_bytes", "bytes", "lower"},
	{"entrada.restore_ms", "ms", "lower"},
	{"pcapio.follow_read_ns_per_pkt", "ns", "lower"},
	{"workload.generate_events_per_s", "1/s", "higher"},
	// The benchmark itself: validity, not performance.
	{"bench.build_s", "s", "lower"},
	{"bench.gen_late_us_p99", "us", "lower"},
	{"bench.gen_cpu_share", "ratio", "lower"},
	{"bench.gen_bound_rungs", "count", "lower"},
	{"bench.cost_stack_coverage", "ratio", "higher"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a list of definitions.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64)}
}

// set records a value; a name that is not defined is a bug in the program.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("dnsbench: metric " + name + " is not defined")
}

// emit returns every defined metric with its unit; unset metrics are 0.
func (m *metricSet) emit() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = value{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
