package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (a unit test compares the two).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, printed by the timed
// run (--trace 0) on every workload. The three timing metrics are scaled to
// the reference's nominal speed (reference.go). Bounds come from two sets of
// ten seeds on the reference box (README, Reproducibility): even scaled, a
// timing on a shared 2-core VM spreads by up to 22% over ten runs, so timings
// take the largest bound allowed; the counts repeat within 6% and 1.3%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lookup_vectors_per_s", "vectors/s", "higher", 0.25},
	{"lookup_p50_us", "us", "lower", 0.25},
	{"lookup_p95_us", "us", "lower", 0.25},
	{"nvm_reads_per_klookup", "reads/klookup", "lower", 0.15},
	{"dram_ratio", "ratio", "lower", 0.05},
}

// perLayer are the metrics of single layers (layer = package name), printed
// by the traced run (--trace 1). A metric that does not apply to a workload
// (cluster.* off routed_http, update metrics off mixed_bwp) reads 0. The
// e2e.* group holds what a user would see but that this box cannot hold
// within a bound, or that is 0 when all is well.
var perLayer = []metricDef{
	{"e2e.error_rate", "ratio", "lower", 0},
	{"e2e.closed_vectors_per_s", "vectors/s", "higher", 0},
	{"e2e.closed_p99_us", "us", "lower", 0},
	{"e2e.open_p50_us", "us", "lower", 0},
	{"e2e.open_p99_us", "us", "lower", 0},
	{"e2e.update_p50_us", "us", "lower", 0},
	{"e2e.update_p99_us", "us", "lower", 0},

	{"wire.self_p50_us", "us", "lower", 0},
	{"wire.self_p99_us", "us", "lower", 0},
	{"wire.stub_rtt_p50_us", "us", "lower", 0},
	{"wire.stub_vectors_per_s", "vectors/s", "higher", 0},
	{"wire.bytes_per_vector", "bytes", "lower", 0},
	{"wire.local_ratio", "ratio", "lower", 0},
	{"wire.server_errors", "count", "lower", 0},

	{"server.backend_p50_us", "us", "lower", 0},
	{"server.backend_p99_us", "us", "lower", 0},

	{"core.hit_ratio", "ratio", "higher", 0},
	{"core.prefetch_accuracy", "ratio", "higher", 0},
	{"core.effective_bw", "ratio", "higher", 0},
	{"core.coalesced_reads_per_klookup", "reads/klookup", "higher", 0},
	{"core.local_vectors_per_s", "vectors/s", "higher", 0},
	{"core.hit_ns_per_vector", "ns", "lower", 0},
	{"core.allocs_per_hit_batch", "count", "lower", 0},
	{"core.stage_probe_p50_us", "us", "lower", 0},
	{"core.stage_queue_wait_p50_us", "us", "lower", 0},
	{"core.stage_decode_p50_us", "us", "lower", 0},
	{"core.unaccounted_share", "ratio", "lower", 0},
	{"core.update_p50_us", "us", "lower", 0},
	{"core.delta_hit_share", "ratio", "lower", 0},
	{"core.overlay_entries_max", "count", "lower", 0},
	{"core.compactions", "count", "higher", 0},
	{"core.compact_final_s", "s", "lower", 0},
	{"core.compaction_window_p99_ratio", "ratio", "lower", 0},
	{"core.open_s", "s", "lower", 0},
	{"core.train_s", "s", "lower", 0},
	{"core.reopen_s", "s", "lower", 0},
	{"core.reopen_verified", "count", "higher", 0},

	{"vcache.get_ns", "ns", "lower", 0},
	{"vcache.add_evict_ns", "ns", "lower", 0},
	{"vcache.bytes_per_vector", "bytes", "lower", 0},
	{"vcache.arena_utilization", "ratio", "higher", 0},

	{"fp16.decode_ns_per_vector", "ns", "lower", 0},
	{"fp16.encode_ns_per_vector", "ns", "lower", 0},

	{"iosched.avg_batch", "count", "higher", 0},
	{"iosched.coalesced_share", "ratio", "higher", 0},
	{"iosched.queue_wait_p50_us", "us", "lower", 0},
	{"iosched.queue_wait_p99_us", "us", "lower", 0},
	{"iosched.device_reads_per_klookup", "reads/klookup", "lower", 0},
	{"iosched.read8_wall_us", "us", "lower", 0},

	{"nvm.read_block_wall_p50_us", "us", "lower", 0},
	{"nvm.read_block_wall_p99_us", "us", "lower", 0},
	{"nvm.read_block_contended_ns", "ns", "lower", 0},
	{"nvm.est_device_share", "ratio", "lower", 0},
	{"nvm.modelled_service_p50_us", "us", "lower", 0},
	{"nvm.modelled_bw_share", "ratio", "lower", 0},
	{"nvm.bytes_written_per_update_byte", "ratio", "lower", 0},
	{"nvm.journal_writes_per_update", "ratio", "lower", 0},
	{"nvm.flushes", "count", "lower", 0},
	{"nvm.ring_utilization_max", "ratio", "lower", 0},
	{"nvm.space_amp", "ratio", "lower", 0},
	{"nvm.direct_io", "count", "higher", 0},

	{"shp.partition_s", "s", "lower", 0},
	{"shp.fanout_before", "count", "lower", 0},
	{"shp.fanout_after", "count", "lower", 0},
	{"shp.effective_bw_gain", "ratio", "higher", 0},
	{"sim.tune_threshold_s", "s", "lower", 0},
	{"sim.predicted_bw_gain", "ratio", "higher", 0},
	{"sim.prediction_gap", "ratio", "lower", 0},
	{"mrc.hrc_s", "s", "lower", 0},

	{"cluster.router_handler_p50_us", "us", "lower", 0},
	{"cluster.router_self_p50_us", "us", "lower", 0},
	{"cluster.client_http_p50_us", "us", "lower", 0},
	{"cluster.nodes_per_batch", "count", "lower", 0},
	{"cluster.hedges", "count", "lower", 0},
	{"cluster.hedge_wins", "count", "lower", 0},
	{"cluster.wire_requests", "count", "higher", 0},
	{"cluster.wire_fallbacks", "count", "lower", 0},
	{"cluster.node_errors", "count", "lower", 0},
	{"cluster.replica_bootstrap_s", "s", "lower", 0},

	{"proc.gc_pause_p99_us", "us", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.allocs_per_batch", "count", "lower", 0},
	{"proc.cpu_s_per_mvectors", "s", "lower", 0},
	{"proc.heap_growth_b_per_op", "bytes", "lower", 0},
	{"proc.heap_inuse_mb", "MB", "lower", 0},
	{"proc.rss_mb", "MB", "lower", 0},

	{"loadgen.lag_p99_us", "us", "lower", 0},
	{"loadgen.warmup_s", "s", "lower", 0},
	{"loadgen.trace_overhead_pct", "%", "lower", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks names and units against the benchmark contract and
// that no name is used twice.
func validateDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, group := range defs {
		for _, d := range group {
			switch {
			case !nameRE.MatchString(d.Name):
				return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
			case !unitRE.MatchString(d.Unit):
				return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
			case d.Better != "lower" && d.Better != "higher":
				return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
			case d.Bound < 0 || d.Bound > 0.25:
				return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
			case seen[d.Name]:
				return fmt.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the values of one run against its declared metrics.
type report struct {
	defs   []metricDef
	values map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; setting an undeclared metric is a bug in the harness.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// metrics renders every declared metric; one never set reads 0.
func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}
