package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/query"
	"sensorsafe/internal/wavesegment"
)

func TestMain(m *testing.M) {
	time.Local = time.UTC
	os.Exit(m.Run())
}

// The same seed must give byte-identical inputs, and another seed other
// inputs.
func TestInputsDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		tl, err := genTimeline("c00", seed, 2, epoch, 25*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			P any
			T any
		}{tl.packets, tl.truth})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
	// Chunked generation (phone-ingest's outbox) yields the same packets
	// as generating the whole timeline.
	p := newPlan("c00", 7, 2, epoch, 25*time.Minute)
	var pkts []any
	for k := 0; k < p.chunks(); k++ {
		tl, err := p.chunk(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tl.packets {
			pkts = append(pkts, s)
		}
	}
	whole, _ := genTimeline("c00", 7, 2, epoch, 25*time.Minute)
	x, _ := json.Marshal(pkts)
	y, _ := json.Marshal(whole.packets)
	if !bytes.Equal(x, y) {
		t.Fatal("chunked generation differs from whole-timeline generation")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric names must fit the result-line grammar and limits, and
// BENCHMARK.json must list exactly the workloads and metrics the program
// reports, with the same units.
func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]def(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []def
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s/%s, the program reports %s/%s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// runSmoke runs one small workload and returns its result line.
func runSmoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--smoke", "--workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s exited %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d\n%s", workload, res.Correct, res.Attempted, out.String())
	}
	want := endToEndNames
	if trace == "1" {
		want = perLayerNames
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%s reported %d metrics, want %d", workload, len(res.Metrics), len(want))
	}
	for _, n := range want {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("%s did not report %s", workload, n)
		}
	}
	return res
}

func TestSmokeArchiveQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment")
	}
	runSmoke(t, "archive-query", "0")
}

func TestSmokePhoneIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment")
	}
	runSmoke(t, "phone-ingest", "0")
}

func TestSmokeLiveCohortTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment")
	}
	res := runSmoke(t, "live-cohort", "1")
	if res.Metrics["audit.trail_len"].Value != 100000 {
		t.Errorf("audit trail %v, want the retention bound", res.Metrics["audit.trail_len"].Value)
	}
}

// corrupt rewrites /api/query response bodies on their way to the client.
type corrupt func([]byte) []byte

func (c corrupt) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != "/api/query" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body = c(body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

func replace(from, to string) corrupt {
	return func(b []byte) []byte { return bytes.Replace(b, []byte(from), []byte(to), 1) }
}

// dupRow repeats the first sample row of the first released segment.
func dupRow(b []byte) []byte {
	i := bytes.Index(b, []byte(`"data":[`))
	if i < 0 {
		return b
	}
	i += len(`"data":[`)
	j := bytes.IndexByte(b[i:], ']')
	row := append(append([]byte(nil), b[i:i+j+1]...), ',')
	return append(append(append([]byte(nil), b[:i]...), row...), b[i:]...)
}

// A response corrupted between store and client must fail the output
// check that an intact one passes.
func TestCorruptedResponseFailsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment")
	}
	ctx := context.Background()
	d, err := deploy(t.TempDir(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	store := d.stores[0]
	tl, err := genTimeline("c00", 1, 3, epoch, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := register(ctx, store, []string{"c00"}, ruleSet([]string{"analyst-1"}, "", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := uploadAll(ctx, cs, []*timeline{tl}, 1, map[string]int{}); err != nil {
		t.Fatal(err)
	}
	u, err := store.client.RegisterCtx(ctx, "analyst-1", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(tl)
	q := &query.Query{Contributor: "c00", From: epoch, To: epoch.Add(30 * time.Minute)}
	rels, err := store.client.QueryCtx(ctx, u.Key, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.checkReleases(rels, q.From, q.To); err != nil {
		t.Fatalf("intact response failed the check: %v", err)
	}
	for name, c := range map[string]corrupt{
		"a row too many":      dupRow,
		"location too fine":   replace(`"granularity":3`, `"granularity":0`),
		"a raw GPS channel":   replace(`"format":["AccelX"`, `"format":["Latitude"`),
		"a release withdrawn": replace(`"releases":[{`, `"releases":[{"contributor":"c00"},{`),
	} {
		client := &httpapi.StoreClient{BaseURL: store.url, HTTP: &http.Client{Transport: c}}
		rels, err := client.QueryCtx(ctx, u.Key, q)
		if err != nil {
			t.Errorf("%s: the client rejected the response: %v", name, err)
			continue
		}
		if _, err := o.checkReleases(rels, q.From, q.To); err == nil {
			t.Errorf("a response with %s passed the check", name)
		}
	}
}

// Uploads that fill a memtable past the overload threshold right after
// /healthz read healthy leave that reading stale for up to the
// controller's recompute period. settled must still report the store
// overloaded, so that settleAll flushes it before the owner checks, whose
// queries an overloaded store would shed.
func TestSettledSeesLateUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment")
	}
	ctx := context.Background()
	d, err := deploy(t.TempDir(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	n := d.stores[0]
	cs, err := register(ctx, n, []string{"p00"}, ruleSet([]string{"analyst-1"}, "", false))
	if err != nil {
		t.Fatal(err)
	}
	fill := func() float64 {
		st, _ := n.svc.SegmentStoreStats()
		return float64(st.MemtableBytes) / float64(st.MemtableBudget)
	}
	acked := map[string]int{}
	// Uploads go to the datastore directly, so the admission controller
	// sees none of them.
	upload := func(segs []*wavesegment.Segment) {
		if _, err := n.svc.UploadCtx(ctx, cs[0].key, segs); err != nil {
			t.Fatal(err)
		}
		acked["p00"] += rows(segs)
	}
	o := &outbox{plan: newPlan("p00", 1, 0, epoch, 24*time.Hour)}
	next := func() []*wavesegment.Segment {
		b, err := o.next()
		if err != nil || b == nil {
			t.Fatalf("outbox: %v", err)
		}
		return b
	}
	for fill() < 0.5 {
		upload(next())
	}
	// Generate ahead, so the late uploads take as little time as they can.
	var late [][]*wavesegment.Segment
	for i := 0; i < 200; i++ {
		late = append(late, next())
	}
	time.Sleep(stateHold) // the next /healthz recomputes
	if h, err := n.client.HealthCtx(ctx); err != nil || h.Degradation != "healthy" {
		t.Fatalf("before the late uploads: %+v, %v", h, err)
	}
	start := time.Now()
	for _, b := range late {
		if fill() >= 0.95 {
			break
		}
		upload(b)
	}
	t.Logf("late uploads took %v", time.Since(start))
	if f := fill(); f < 0.92 || f >= 1 {
		t.Fatalf("memtable %.3f full, want between the overload threshold and a flush", f)
	}
	state, err := n.settled(ctx, 10*time.Second)
	if err != nil || state != "overloaded" {
		t.Fatalf("settled reported %q, %v; want overloaded", state, err)
	}
	if err := d.settleAll(ctx, &report{}); err != nil {
		t.Fatal(err)
	}
	if err := checkOwnTotals(ctx, cs, acked, epoch, epoch.Add(24*time.Hour), 1); err != nil {
		t.Fatal(err)
	}
}
