package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencies collects per-operation timings in milliseconds. Safe for
// concurrent use.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	out := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	sort.Float64s(out)
	return out
}

// median returns the median of v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and its value: the sample with exactly ten above it. With ten
// or fewer samples it returns the maximum as the 100th percentile.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return 100, sorted[n-1]
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11]
}

// metric is one reported number with its unit and the sample count it
// summarizes (0 when it is a count or a ratio, not a summary).
type metric struct {
	Name    string  `json:"-"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Pct is the percentile a *_tail_ms value reads.
	Pct float64 `json:"percentile,omitempty"`
	// Base names the denominator of a ratio.
	Base string `json:"base,omitempty"`
}

// report is an ordered set of metrics.
type report struct {
	list   []metric
	checks []string // failed output checks
}

func (r *report) add(m metric) { r.list = append(r.list, m) }

func (r *report) set(name string, v float64, unit string) {
	r.add(metric{Name: name, Value: v, Unit: unit})
}

// latency adds name_p50_ms and name_tail_ms from a timing series.
func (r *report) latency(name string, l *latencies) {
	s := l.sorted()
	pct, v := tail(s)
	r.add(metric{Name: name + "_p50_ms", Value: median(s), Unit: "ms", Samples: len(s)})
	r.add(metric{Name: name + "_tail_ms", Value: v, Unit: "ms", Samples: len(s), Pct: pct})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runtimeSample reads the Go runtime counters the per-op metrics are
// built from.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapPeak samples the heap live after the last garbage collection every
// few milliseconds and keeps the maximum, until stop is called.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// promSample is one Prometheus text-format sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is a parsed /metrics page.
type promScrape []promSample

// scrape fetches and parses a server's /metrics page.
func scrape(ctx context.Context, baseURL string) (promScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", baseURL, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promScrape, error) {
	var out promScrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		s := promSample{name: head, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 && strings.HasSuffix(head, "}") {
			s.name = head[:i]
			s.labels = parseLabels(head[i+1 : len(head)-1])
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string) map[string]string {
	m := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			val.WriteByte(rest[i])
		}
		m[key] = val.String()
		s = strings.TrimPrefix(rest[min(i+1, len(rest)):], ",")
	}
	return m
}

// sum adds every sample of the named series whose labels include all of
// want.
func (p promScrape) sum(name string, want map[string]string) float64 {
	total := 0.0
outer:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue outer
			}
		}
		total += s.value
	}
	return total
}

// promDelta is the change of counters between two scrapes of one server.
type promDelta struct{ before, after promScrape }

func (d promDelta) sum(name string, want map[string]string) float64 {
	return d.after.sum(name, want) - d.before.sum(name, want)
}

// histMS returns a histogram's mean in milliseconds over the interval,
// and its observation count.
func (d promDelta) histMS(name string, want map[string]string) (float64, int) {
	n := d.sum(name+"_count", want)
	if n <= 0 {
		return 0, 0
	}
	return 1000 * d.sum(name+"_sum", want) / n, int(n)
}
