package main

// metricDef mirrors one entry of BENCHMARK.json; harness_test.go holds the
// two lists equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees, on every workload,
// measured with tracing off. Bound is the share of the parent's median by
// which a change may worsen the metric.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mb_per_s", "MB/s", "higher", 0.25},
	{"doc_latency_p50_ms", "ms", "lower", 0.25},
	{"doc_latency_p95_ms", "ms", "lower", 0.25},
	{"first_result_p50_us", "us", "lower", 0.25},
	{"alloc_kb_per_doc", "KB", "lower", 0.05},
}

// perLayerMetrics come from a traced run; the layer is the module name.
var perLayerMetrics = []metricDef{
	{Name: "xpath.parse_us_per_query", Unit: "us", Better: "lower"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower"},

	{Name: "xmlscan.scan_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "xmlscan.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmlscan.events_per_doc", Unit: "count", Better: "lower"},
	{Name: "xmlscan.bytes_per_event", Unit: "count", Better: "higher"},
	{Name: "xmlscan.share", Unit: "ratio", Better: "lower"},

	{Name: "engine.eval_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "engine.reset_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "engine.machines_woken_per_event", Unit: "count", Better: "lower"},
	{Name: "engine.trie_pushes_per_event", Unit: "count", Better: "lower"},
	{Name: "engine.trie_nodes", Unit: "count", Better: "lower"},
	{Name: "engine.anchored_machines", Unit: "count", Better: "higher"},
	{Name: "engine.sharing_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.parallel2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.add_us", Unit: "us", Better: "lower"},
	{Name: "engine.remove_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_doc", Unit: "count", Better: "lower"},

	{Name: "twigm.peak_stack_entries", Unit: "count", Better: "lower"},
	{Name: "twigm.peak_live_candidates", Unit: "count", Better: "lower"},
	{Name: "twigm.peak_buffered_kb", Unit: "KB", Better: "lower"},
	{Name: "twigm.flag_props_per_event", Unit: "count", Better: "lower"},
	{Name: "twigm.candidates_dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "twigm.deliver_lag_events_p99", Unit: "count", Better: "lower"},

	{Name: "vitex.emit_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "vitex.value_bytes_per_result", Unit: "count", Better: "lower"},
	{Name: "vitex.callback_self_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "vitex.peak_live_heap_mb", Unit: "MB", Better: "lower"},

	{Name: "server.overhead_us_per_result", Unit: "us", Better: "lower"},
	{Name: "server.inproc_publish_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.http_ingest_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.publish_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.publish_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.admission_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.wal_append_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.wal_fsync_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.scan_dispatch_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.ring_enqueue_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.deliver_wait_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.wire_write_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.stage_sum_share", Unit: "ratio", Better: "lower"},
	{Name: "server.deliveries_per_doc", Unit: "count", Better: "lower"},
	{Name: "server.gaps", Unit: "count", Better: "lower"},
	{Name: "server.dropped", Unit: "count", Better: "lower"},
	{Name: "server.queue_full_rejects", Unit: "count", Better: "lower"},

	{Name: "server.wal_bytes_per_doc", Unit: "count", Better: "lower"},
	{Name: "server.wal_segments", Unit: "count", Better: "lower"},
	{Name: "server.replay_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.resume_catchup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "server.recover_docs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "client.decode_us_per_result", Unit: "us", Better: "lower"},
	{Name: "gen.offered_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.backlog_max_docs", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
}
