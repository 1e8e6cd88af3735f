package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorsafe/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one operation share Op; Parent is
// the enclosing span's ID (0 for the operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextOp atomic.Uint64
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // per-layer work counted beside the spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// count adds v to a named counter. No-op when untraced.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// traceHook lets a deployment's servers record spans for whichever
// tracer is current; between traced phases requests pass straight through.
type traceHook struct{ cur atomic.Pointer[tracer] }

func (h *traceHook) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t := h.cur.Load(); t != nil {
			t.serve(next, w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// active is an open span; end records it.
type active struct {
	tr *tracer
	sp span
}

// op starts the root span of a new operation.
func (t *tracer) op(name string) *active {
	if t == nil {
		return nil
	}
	return t.begin(t.nextOp.Add(1), 0, name)
}

func (t *tracer) begin(op, parent uint64, name string) *active {
	return &active{tr: t, sp: span{
		Op: op, ID: t.nextID.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)),
	}}
}

// child starts a span nested in a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.tr.begin(a.sp.Op, a.sp.ID, name)
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = int64(time.Since(a.tr.t0))
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.sp)
	a.tr.mu.Unlock()
}

// ctx tags outgoing requests with the span, through the X-Request-ID the
// production clients already propagate, so the server-side spans the
// benchmark records join this operation.
func (a *active) ctx(ctx context.Context) context.Context {
	if a == nil {
		return ctx
	}
	return obs.WithRequestID(ctx, fmt.Sprintf("pb-%d-%d", a.sp.Op, a.sp.ID))
}

// parseTag recovers (op, parent) from a request ID minted by ctx.
func parseTag(id string) (op, parent uint64, ok bool) {
	rest, found := strings.CutPrefix(id, "pb-")
	if !found {
		return 0, 0, false
	}
	a, b, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// serve records, around the production handler, one httpapi.server span
// per request plus its body read and response write, parented to the
// client span that sent it.
func (t *tracer) serve(h http.Handler, w http.ResponseWriter, r *http.Request) {
	op, parent, ok := parseTag(r.Header.Get("X-Request-ID"))
	if !ok {
		h.ServeHTTP(w, r)
		return
	}
	srv := t.begin(op, parent, "httpapi.server")
	body := &timedBody{ReadCloser: r.Body, sp: srv}
	r.Body = body
	tw := &timedWriter{ResponseWriter: w, sp: srv}
	h.ServeHTTP(tw, r)
	if body.read != nil {
		body.read.end()
	}
	if tw.write != nil {
		tw.write.end()
	}
	srv.end()
}

// timedBody opens an httpapi.read_body span at the first Read and closes
// it at EOF.
type timedBody struct {
	io.ReadCloser
	sp   *active
	read *active
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	if b.read == nil {
		b.read = b.sp.child("httpapi.read_body")
	}
	n, err := b.ReadCloser.Read(p)
	if err != nil && !b.done {
		b.done = true
		b.read.end()
		b.read = nil
	}
	return n, err
}

// timedWriter opens an httpapi.write_resp span at the first byte written
// and closes it when the handler returns.
type timedWriter struct {
	http.ResponseWriter
	sp    *active
	write *active
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.write == nil {
		w.write = w.sp.child("httpapi.write_resp")
	}
	return w.ResponseWriter.Write(p)
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// layerTime is the aggregated self and total time of one span name.
type layerTime struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
}

// selfTimes aggregates spans per name. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
		}
		lt.count++
		lt.totalNS += s.End - s.Start
		lt.selfNS += s.End - s.Start - coveredNS(children[s.ID], s.Start, s.End)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// coveredNS is the length of the union of the spans' intervals clipped to
// [from, to).
func coveredNS(spans []span, from, to int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, from), min(s.End, to)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, from
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// writeSpans writes every span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	//sslint:ignore atomicwrite a span file is a throwaway run artifact, not durable state
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
