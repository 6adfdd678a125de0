package main

// unitMetric names a reported metric and its unit.
type unitMetric struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0. BENCHMARK.json lists the same names (bench_test.go checks).
// The p90 latencies and the scrape time are per-layer: on the reference VM
// they move between runs by more than any bound a regression gate can hold
// (http-open's p90s with steal bursts, serve-mix's in-process scrape with
// the heap's GC state).
var e2eMetrics = []unitMetric{
	{"steps_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"done_p50_ms", "ms"},
	{"ok_share", "share"},
	{"sim_time_per_step", "sim/step"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1. A layer a workload does not exercise reports 0.
var layerMetrics = []unitMetric{
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.submit_p90_ms", "ms"},
	{"loadgen.submit_p99_ms", "ms"},
	{"loadgen.done_p90_ms", "ms"},
	{"loadgen.done_p99_ms", "ms"},
	{"loadgen.scrape_p50_ms", "ms"},
	{"http.submit_p50_us", "us"},
	{"http.submit_p99_us", "us"},
	{"http.metrics_p50_ms", "ms"},
	{"http.spans_p50_ms", "ms"},
	{"http.metrics_bytes", "bytes"},
	{"http.spans_bytes", "bytes"},
	{"http.refused", "count"},
	{"tick.busy_p50_us", "us"},
	{"tick.busy_p99_us", "us"},
	{"tick.lag_p50_us", "us"},
	{"tick.lag_p99_us", "us"},
	{"tick.busy_share", "share"},
	{"round.p50_us", "us"},
	{"round.p90_us", "us"},
	{"round.p99_us", "us"},
	{"round.exec_share", "share"},
	{"round.steps_per_exec", "steps"},
	{"round.forced_merges", "count"},
	{"round.merged_share", "share"},
	{"source.next_p50_us", "us"},
	{"source.share", "share"},
	{"quorum.phases_per_step", "phases"},
	{"quorum.copies_per_step", "copies"},
	{"quorum.dedup_ratio", "share"},
	{"quorum.read_share", "share"},
	{"quorum.ns_per_copy", "ns"},
	{"pool.active_mean", "share"},
	{"pool.components_mean", "count"},
	{"mot.cycles_per_step", "cycles"},
	{"mot.hops_per_step", "hops"},
	{"mot.collisions_per_step", "count"},
	{"mot.ns_per_hop", "ns"},
	{"replay.record_s", "s"},
	{"replay.verify_s", "s"},
	{"setup.newserver_s", "s"},
	{"mem.alloc_bytes_per_round", "bytes"},
	{"mem.gc_count", "count"},
	{"mem.heap_peak_mb", "MB"},
	{"host.steal_share", "share"},
	{"trace.spans", "count"},
	{"trace.steps_per_s", "1/s"},
}
