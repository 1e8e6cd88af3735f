package main

import "sort"

// def names one metric of the result line and its unit.
type def struct{ name, unit string }

// endToEnd are the result-line metrics of an untraced run. Every workload
// reports all of them; op_* and samples_per_s read the workload's primary
// operation: a query on archive-query, an upload batch on phone-ingest, a
// cohort query on live-cohort. samples_per_s counts the stored samples
// those operations covered: uploaded, or inside the queried windows. The
// workload-specific names (query_p50_ms, space_amp, stream_lag_tail_ms,
// ...) are printed above the result line.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"samples_per_s", "1/s"},
}

// perLayer are the result-line metrics of a traced run. Every workload
// reports all of them; a layer the workload leaves idle reads 0.
var perLayer = []def{
	{"httpapi.encode_ms", "ms"},
	{"httpapi.client_decode_ms", "ms"},
	{"httpapi.resp_bytes", "bytes"},
	{"httpapi.decode_ms", "ms"},
	{"httpapi.req_bytes", "bytes"},
	{"httpapi.server_ms", "ms"},
	{"httpapi.read_body_ms", "ms"},
	{"httpapi.write_resp_ms", "ms"},
	{"wavesegment.optimize_ms", "ms"},
	{"datastore.upload_ms", "ms"},
	{"datastore.records_per_packet", "ratio"},
	{"datastore.query_ms", "ms"},
	{"segstore.scan_ms", "ms"},
	{"segstore.scanned_per_release", "ratio"},
	{"segstore.flushes", "count"},
	{"segstore.compactions", "count"},
	{"segstore.compact_ms", "ms"},
	{"segstore.disk_bytes", "bytes"},
	{"segstore.l0_files_max", "count"},
	{"overload.queue_wait_ms", "ms"},
	{"overload.shed", "count"},
	{"overload.state_changes", "count"},
	{"overload.pressure_max", "ratio"},
	{"ruleindex.cache_hit_ratio", "ratio"},
	{"ruleindex.compile_ms", "ms"},
	{"ruleindex.decisions", "count"},
	{"abstraction.enforce_ms", "ms"},
	{"abstraction.releases_per_segment", "ratio"},
	{"audit.trail_len", "count"},
	{"audit.events_per_query", "ratio"},
	{"audit.record_us", "us"},
	{"stream.deliver_ms", "ms"},
	{"stream.delivered", "count"},
	{"stream.gaps", "count"},
	{"broker.search_ms", "ms"},
	{"broker.connect_ms", "ms"},
	{"federation.cohort_ms", "ms"},
	{"federation.store_ms", "ms"},
	{"federation.credential_hit_ratio", "ratio"},
	{"federation.partial", "count"},
	{"resilience.retries", "count"},
	{"resilience.giveups", "count"},
	{"auth.authenticate_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.untraced_share", "ratio"},
}

var (
	endToEndNames = names(endToEnd)
	perLayerNames = names(perLayer)
)

func names(ds []def) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.name
	}
	return out
}

func unitOf(name string) string {
	for _, ds := range [][]def{endToEnd, perLayer} {
		for _, d := range ds {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
