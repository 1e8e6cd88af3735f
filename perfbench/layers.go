package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/segstore"
)

// snapshot is what the traced run reads from the servers before and after
// its phase: the /metrics counters (one process-wide registry, so one
// scrape covers broker and stores), each store's /debug/segstore and
// /debug/ruleindex, and the Go runtime counters.
type snapshot struct {
	prom promScrape
	seg  []segstore.Stats
	rix  []map[string]ruleindex.Stats
	rt   runtimeSample
}

func takeSnapshot(ctx context.Context, d *deployment) (*snapshot, error) {
	s := &snapshot{rt: readRuntime()}
	var err error
	if s.prom, err = scrape(ctx, d.stores[0].url); err != nil {
		return nil, err
	}
	for _, n := range d.stores {
		var st segstore.Stats
		if err := getJSON(ctx, n.url+"/debug/segstore", &st); err != nil {
			return nil, err
		}
		s.seg = append(s.seg, st)
		var rix map[string]ruleindex.Stats
		if err := getJSON(ctx, n.url+"/debug/ruleindex", &rix); err != nil {
			return nil, err
		}
		s.rix = append(s.rix, rix)
	}
	return s, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sampler polls storage backlog and admission pressure while a phase
// runs: the highest L0 file count and controller pressure seen.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	l0Max    int
	pressMax float64
}

func sample(d *deployment, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			for _, n := range d.stores {
				if st, ok := n.svc.SegmentStoreStats(); ok {
					s.l0Max = max(s.l0Max, l0Files(st))
				}
				s.pressMax = max(s.pressMax, n.ctrl.Pressure())
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) end() {
	close(s.stop)
	<-s.done
}

// layerInput is what the shared per-layer metrics are computed from.
type layerInput struct {
	before, after *snapshot
	tr            *tracer
	ops           int    // primary operations in the traced phase
	route         string // the store route of the primary operation
	// replayQueries counts datastore.QueryCtx calls the benchmark made
	// directly (they record audit events and program spans too).
	replayQueries int
	samp          *sampler
	trail         int     // audit trail length at the end of the phase
	trailStart    int     // and at its start
	authUS        float64 // auth.Registry.Authenticate, µs per call
}

// spanMetrics maps per-layer metrics to the benchmark span whose mean
// duration they report.
var spanMetrics = map[string]string{
	"httpapi.encode_ms":        "httpapi.encode",
	"httpapi.client_decode_ms": "httpapi.client_decode",
	"httpapi.decode_ms":        "httpapi.decode",
	"wavesegment.optimize_ms":  "wavesegment.optimize",
	"datastore.query_ms":       "datastore.query",
	"segstore.scan_ms":         "segstore.scan",
	"abstraction.enforce_ms":   "abstraction.enforce",
	"broker.search_ms":         "broker.search",
	"broker.connect_ms":        "broker.connect",
	"federation.cohort_ms":     "federation.cohort",
	"federation.store_ms":      "federation.store",
}

func spanLabel(name string) map[string]string { return map[string]string{"span": name} }

func storeRoute(route string) map[string]string {
	return map[string]string{"component": "store", "route": route}
}

// layerReport adds every per-layer metric of a traced phase, from the
// span tree, the benchmark's own counters, the servers' counters and the
// runtime. Layers the workload leaves idle read 0.
func layerReport(in *layerInput, r *report) {
	addSpanMeans(in.tr, r, spanMetrics)
	c := in.tr.counter
	perUnit := func(name, num, den, unit string) {
		if d := c(den); d > 0 {
			r.add(metric{Name: name, Value: c(num) / d, Unit: unit, Base: fmt.Sprintf("%.0f %s", d, den)})
		}
	}
	perUnit("httpapi.resp_bytes", "resp_bytes", "responses", "bytes")
	perUnit("httpapi.req_bytes", "req_bytes", "requests", "bytes")
	perUnit("datastore.records_per_packet", "records", "packets", "ratio")
	perUnit("abstraction.releases_per_segment", "releases", "segments", "ratio")
	r.set("stream.delivered", c("stream_delivered"), "count")
	r.set("stream.gaps", c("stream_gaps"), "count")
	r.set("federation.partial", c("partial"), "count")
	r.set("audit.trail_len", float64(in.trail), "count")
	r.set("audit.trail_len_start", float64(in.trailStart), "count")
	r.add(metric{Name: "audit.record_us", Value: recordMicros(in.trail, 50), Unit: "us", Samples: 50, Base: fmt.Sprintf("trail of %d events", in.trail)})
	r.set("auth.authenticate_us", in.authUS, "us")

	d := promDelta{in.before.prom, in.after.prom}
	ops := float64(max(in.ops, 1))

	srv, n := d.histMS("sensorsafe_http_request_seconds", storeRoute(in.route))
	r.add(metric{Name: "httpapi.server_ms", Value: srv, Unit: "ms", Samples: n, Base: in.route})
	up, n := d.histMS("sensorsafe_span_seconds", spanLabel("datastore.upload"))
	r.add(metric{Name: "datastore.upload_ms", Value: up, Unit: "ms", Samples: n})

	var flushes, compactions uint64
	var disk int64
	for i, st := range in.after.seg {
		flushes += st.Flushes - in.before.seg[i].Flushes
		compactions += st.Compactions - in.before.seg[i].Compactions
		disk += st.WALBytes
		for _, lv := range st.Levels {
			disk += lv.Bytes
		}
	}
	r.set("segstore.flushes", float64(flushes), "count")
	r.set("segstore.compactions", float64(compactions), "count")
	cm, n := d.histMS("sensorsafe_span_seconds", spanLabel("segstore.compact"))
	r.add(metric{Name: "segstore.compact_ms", Value: cm, Unit: "ms", Samples: n})
	r.set("segstore.disk_bytes", float64(disk), "bytes")
	r.set("segstore.l0_files_max", float64(in.samp.l0Max), "count")
	scanned := d.sum("sensorsafe_datastore_segments_scanned_total", nil)
	released := d.sum("sensorsafe_datastore_releases_total", map[string]string{"decision": "allow"}) +
		d.sum("sensorsafe_datastore_releases_total", map[string]string{"decision": "abstract"})
	if released > 0 {
		r.add(metric{Name: "segstore.scanned_per_release", Value: scanned / released, Unit: "ratio", Base: fmt.Sprintf("%.0f releases", released)})
	}

	qw, n := d.histMS("sensorsafe_overload_queue_wait_seconds", nil)
	r.add(metric{Name: "overload.queue_wait_ms", Value: qw, Unit: "ms", Samples: n})
	r.set("overload.shed", d.sum("sensorsafe_overload_shed_total", nil), "count")
	r.set("overload.state_changes", d.sum("sensorsafe_overload_state_changes_total", nil), "count")
	r.set("overload.pressure_max", in.samp.pressMax, "ratio")

	hits := d.sum("sensorsafe_ruleindex_cache_total", map[string]string{"result": "hit"})
	misses := d.sum("sensorsafe_ruleindex_cache_total", map[string]string{"result": "miss"})
	if hits+misses > 0 {
		r.add(metric{Name: "ruleindex.cache_hit_ratio", Value: hits / (hits + misses), Unit: "ratio", Base: fmt.Sprintf("%.0f lookups", hits+misses)})
	}
	var versions uint64
	for i, after := range in.after.rix {
		for name, st := range after {
			versions += st.Version - in.before.rix[i][name].Version
		}
	}
	r.add(metric{Name: "ruleindex.store_versions", Value: float64(versions), Unit: "count", Base: "rule-set versions the stores' indexes advanced, from /debug/ruleindex"})
	cp, n := d.histMS("sensorsafe_ruleindex_compile_seconds", nil)
	r.add(metric{Name: "ruleindex.compile_ms", Value: cp, Unit: "ms", Samples: n})
	r.set("ruleindex.decisions", d.sum("sensorsafe_ruleindex_decisions_total", nil), "count")

	queries := d.sum("sensorsafe_http_requests_total", map[string]string{"component": "store", "route": "/api/query"}) + float64(in.replayQueries)
	events := d.sum("sensorsafe_datastore_releases_total", nil)
	if queries > 0 {
		r.add(metric{Name: "audit.events_per_query", Value: events / queries, Unit: "ratio", Base: fmt.Sprintf("%.0f store queries", queries)})
	}

	sd, n := d.histMS("sensorsafe_span_seconds", spanLabel("stream.deliver"))
	r.add(metric{Name: "stream.deliver_ms", Value: sd, Unit: "ms", Samples: n})
	cache := d.sum("sensorsafe_federation_credentials_total", map[string]string{"source": "cache"})
	connect := d.sum("sensorsafe_federation_credentials_total", map[string]string{"source": "connect"})
	if cache+connect > 0 {
		r.add(metric{Name: "federation.credential_hit_ratio", Value: cache / (cache + connect), Unit: "ratio", Base: fmt.Sprintf("%.0f credential lookups", cache+connect)})
	}
	r.set("resilience.retries", d.sum("sensorsafe_resilience_retries_total", nil), "count")
	r.set("resilience.giveups", d.sum("sensorsafe_resilience_giveups_total", nil), "count")

	rt0, rt1 := in.before.rt, in.after.rt
	r.add(metric{Name: "runtime.alloc_bytes_per_op", Value: float64(rt1.allocBytes-rt0.allocBytes) / ops, Unit: "bytes", Base: "primary ops, whole process"})
	r.add(metric{Name: "runtime.allocs_per_op", Value: float64(rt1.allocObjects-rt0.allocObjects) / ops, Unit: "count", Base: "primary ops, whole process"})
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		r.add(metric{Name: "runtime.gc_cpu_frac", Value: (rt1.gcCPU - rt0.gcCPU) / cpu, Unit: "ratio", Base: "process CPU"})
	}

	// Self time per benchmark span, and how much of the server time the
	// spans leave dark: the benchmark's read/write spans plus the program's
	// own datastore/broker/stream spans (less the benchmark's direct
	// replays of datastore.query) cover the rest of httpapi.server.
	var serverNS, readWriteNS, replayQueryNS int64
	for _, lt := range in.tr.selfTimes() {
		r.add(metric{Name: "self." + lt.name + "_ms", Value: float64(lt.selfNS) / 1e6 / float64(lt.count), Unit: "ms", Samples: lt.count, Base: "per span"})
		switch lt.name {
		case "httpapi.server":
			serverNS = lt.totalNS
		case "httpapi.read_body", "httpapi.write_resp":
			readWriteNS += lt.totalNS
		case "datastore.query":
			replayQueryNS = lt.totalNS
		}
		switch lt.name {
		case "httpapi.read_body", "httpapi.write_resp":
			r.add(metric{Name: lt.name + "_ms", Value: float64(lt.totalNS) / 1e6 / float64(lt.count), Unit: "ms", Samples: lt.count})
		}
	}
	if serverNS > 0 {
		inner := 0.0
		for _, s := range []string{"datastore.query", "datastore.upload", "broker.search", "broker.connect", "stream.deliver"} {
			inner += d.sum("sensorsafe_span_seconds_sum", spanLabel(s))
		}
		inner -= float64(replayQueryNS) / 1e9
		dark := 1 - (float64(readWriteNS)/1e9+inner)/(float64(serverNS)/1e9)
		r.add(metric{Name: "trace.untraced_share", Value: max(dark, 0), Unit: "ratio", Base: "httpapi.server span time"})
	}
	splitReport(in.route, srv, r)
}

// splitReport adds, as split.<layer>_share, the share of the primary
// route's mean server time each layer measured beside it accounts for:
// scan, enforcement, encoding and audit recording (events per query times
// Trail.Record at the measured trail length) for queries; decoding, the
// optimizer and the datastore's upload span for uploads. The datastore
// span holds the optimizer, so upload shares overlap.
func splitReport(route string, serverMS float64, r *report) {
	if serverMS <= 0 {
		return
	}
	get := func(name string) float64 {
		m, _ := r.get(name)
		return m.Value
	}
	parts := map[string]float64{
		"httpapi.decode":       get("httpapi.decode_ms"),
		"wavesegment.optimize": get("wavesegment.optimize_ms"),
		"datastore.upload":     get("datastore.upload_ms"),
	}
	if route == "/api/query" {
		parts = map[string]float64{
			"segstore.scan":       get("segstore.scan_ms"),
			"abstraction.enforce": get("abstraction.enforce_ms"),
			"httpapi.encode":      get("httpapi.encode_ms"),
			"audit.record":        get("audit.events_per_query") * get("audit.record_us") / 1000,
		}
	}
	base := fmt.Sprintf("httpapi.server_ms %.3f on %s", serverMS, route)
	for _, name := range sortedKeys(parts) {
		r.add(metric{Name: "split." + name + "_share", Value: parts[name] / serverMS, Unit: "ratio", Base: base})
	}
}

// spanMean returns the mean duration in ms of the named spans and their
// count.
func spanMean(tr *tracer, name string) (float64, int) {
	for _, lt := range tr.selfTimes() {
		if lt.name == name {
			return float64(lt.totalNS) / 1e6 / float64(lt.count), lt.count
		}
	}
	return 0, 0
}

// addSpanMeans reports mean span durations under metric names.
func addSpanMeans(tr *tracer, r *report, names map[string]string) {
	for _, metricName := range sortedKeys(names) {
		v, n := spanMean(tr, names[metricName])
		r.add(metric{Name: metricName, Value: v, Unit: "ms", Samples: n})
	}
}

// recordMicros times Trail.Record on a benchmark-owned trail holding fill
// events, as the store's trail does at that length.
func recordMicros(fill, n int) float64 {
	t := audit.NewTrail(0)
	ev := audit.Event{
		At: epoch, Contributor: "c00", Consumer: "analyst-1",
		Query:     "contributor(c00) from(2026-03-06T23:00:00Z) to(2026-03-06T23:10:00Z)",
		SpanStart: epoch, SpanEnd: epoch.Add(time.Minute), Outcome: audit.OutcomeAbstracted,
		Channels: []string{"AccelX", "AccelY", "AccelZ", "Microphone"}, Contexts: []string{"Still", "NotStressed"},
		TraceID: "0123456789abcdef0123456789abcdef",
	}
	for i := 0; i < fill; i++ {
		t.Record(ev)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Record(ev)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// authMicros times the store's key check, a layer every request crosses
// and no workload should move.
func authMicros(reg *auth.Registry, key auth.APIKey, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := reg.Authenticate(key); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// trailLen sums the store's audit trail over its contributors, through
// the contributor-facing summary API.
func trailLen(ctx context.Context, cs []*contributor) (int, error) {
	total := 0
	for _, c := range cs {
		sums, err := c.store.client.AuditSummaryCtx(ctx, c.key)
		if err != nil {
			return 0, err
		}
		for _, s := range sums {
			total += s.Accesses
		}
	}
	return total, nil
}
