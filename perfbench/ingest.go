package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/wavesegment"
)

// ingest is the phone-ingest workload: two phones back online drain a
// day of 64-sample packets in 16-packet batches, each in closed loop on
// its own connection, into a store that already holds the hour before,
// with background flush and compaction running.
type ingest struct {
	cfg    config
	dayLen time.Duration
	prev   []*timeline // the hour before the day, stored during set-up

	// Per deployment.
	d      *deployment
	phones []*contributor
	acked  map[string]int
	raw    int64 // bytes of sample values acknowledged (8 per channel value)
	outbox []*outbox
}

// outbox is one phone's day, generated a chunk at a time as it drains so
// the benchmark never holds a whole day of packets in memory.
type outbox struct {
	plan   *plan
	chunk  int                      // next chunk to generate
	queued [][]*wavesegment.Segment // batches of the current chunk
}

// next returns the next batch, or nil when the day is drained.
func (o *outbox) next() ([]*wavesegment.Segment, error) {
	for len(o.queued) == 0 {
		if o.chunk == o.plan.chunks() {
			return nil, nil
		}
		tl, err := o.plan.chunk(o.chunk)
		if err != nil {
			return nil, err
		}
		o.chunk++
		o.queued = batches(tl.packets, batchPackets)
	}
	b := o.queued[0]
	o.queued = o.queued[1:]
	return b, nil
}

func newIngest(cfg config) (workload, error) {
	w := &ingest{cfg: cfg, dayLen: 24 * time.Hour}
	prevLen := time.Hour
	if cfg.smoke {
		w.dayLen, prevLen = time.Hour, 10*time.Minute
	}
	for i := 0; i < cfg.clients; i++ {
		prev, err := genTimeline(phoneName(i), cfg.seed*1000+500+int64(i), i, epoch.Add(-prevLen), prevLen)
		if err != nil {
			return nil, err
		}
		w.prev = append(w.prev, prev)
	}
	return w, nil
}

func phoneName(i int) string { return fmt.Sprintf("p%02d", i) }

func (w *ingest) setup(ctx context.Context) error {
	d, err := deploy(fmt.Sprintf("%s/d%d", w.cfg.workdir, time.Now().UnixNano()), 1, w.cfg.trace)
	if err != nil {
		return err
	}
	w.d = d
	store := d.stores[0]
	names := make([]string, len(w.prev))
	for i := range names {
		names[i] = phoneName(i)
	}
	if w.phones, err = register(ctx, store, names, ruleSet([]string{"analyst-1"}, "", false)); err != nil {
		return err
	}
	w.acked = map[string]int{}
	w.raw = 0
	w.outbox = nil
	for i := range w.phones {
		w.outbox = append(w.outbox, &outbox{plan: newPlan(phoneName(i), w.cfg.seed*1000+int64(i), i, epoch, w.dayLen)})
	}
	if err := uploadAll(ctx, w.phones, w.prev, w.cfg.clients, w.acked); err != nil {
		return err
	}
	for _, tl := range w.prev {
		w.raw += valueBytes(tl.packets)
	}
	if err := store.segstore().Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return store.steady(ctx, 30*time.Second)
}

// valueBytes is the size of the samples' values as float64s.
func valueBytes(segs []*wavesegment.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += int64(8 * s.NumSamples() * len(s.Channels))
	}
	return n
}

func (w *ingest) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase("upload")
	store := w.d.stores[0]
	var before *snapshot
	var err error
	if tr != nil {
		if before, err = takeSnapshot(ctx, w.d); err != nil {
			return nil, err
		}
		w.d.trace(tr)
		defer w.d.trace(nil)
	}
	samp := sample(w.d, 20*time.Millisecond)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, p := range w.phones {
		wg.Add(1)
		go func(i int, p *contributor) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b, err := w.outbox[i].next()
				if err != nil {
					ph.failf("generate: %v", err)
					return
				}
				if b == nil {
					return // the day is drained
				}
				op := tr.op("op.upload")
				cl := op.child("httpapi.client")
				t0 := time.Now()
				n, err := store.client.UploadCtx(cl.ctx(ctx), p.key, b)
				lat := time.Since(t0)
				cl.end()
				ph.op(lat, err)
				if err == nil {
					r := rows(b)
					ph.rows.Add(int64(r))
					mu.Lock()
					w.acked[p.name] += r
					w.raw += valueBytes(b)
					mu.Unlock()
					tr.count("records", float64(n))
					tr.count("packets", float64(len(b)))
				}
				if tr != nil {
					replayUpload(op, p.key, b)
				}
				op.end()
			}
		}(i, p)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	samp.end()

	st, _ := store.svc.SegmentStoreStats()
	disk := st.WALBytes
	for _, lv := range st.Levels {
		disk += lv.Bytes
	}
	secs := ph.elapsed.Seconds()
	ph.extra = append(ph.extra,
		metric{Name: "ingest_samples_per_s", Value: float64(ph.rows.Load()) / secs, Unit: "1/s", Samples: len(ph.primary.ms)},
		metric{Name: "space_amp", Value: float64(disk) / float64(w.raw), Unit: "ratio", Base: fmt.Sprintf("%d bytes of acknowledged sample values", w.raw)},
		metric{Name: "segstore.flushes_total", Value: float64(st.Flushes), Unit: "count"},
		metric{Name: "segstore.compactions_total", Value: float64(st.Compactions), Unit: "count"},
	)
	if tr != nil {
		after, err := takeSnapshot(ctx, w.d)
		if err != nil {
			return nil, err
		}
		ph.layerIn = &layerInput{
			before: before, after: after, tr: tr, ops: len(ph.primary.ms), route: "/api/upload", samp: samp,
			authUS: authMicros(store.svc.Users(), w.phones[0].key, 10000),
		}
	}
	return ph, nil
}

// uploadWire is the store's /api/upload request shape.
type uploadWire struct {
	Key      auth.APIKey            `json:"key"`
	Segments []*wavesegment.Segment `json:"segments"`
}

// replayUpload re-runs one upload's server-side layers by calling their
// public functions directly: request decoding and the §5.1 optimizer,
// per stream as the datastore groups it.
func replayUpload(op *active, key auth.APIKey, b []*wavesegment.Segment) {
	body, err := json.Marshal(uploadWire{Key: key, Segments: b})
	if err != nil {
		return
	}
	op.tr.count("req_bytes", float64(len(body)))
	op.tr.count("requests", 1)
	sp := op.child("httpapi.decode")
	var req uploadWire
	err = json.Unmarshal(body, &req)
	sp.end()
	if err != nil {
		return
	}
	groups := map[string][]*wavesegment.Segment{}
	var order []string
	for _, s := range req.Segments {
		k := strings.Join(s.Channels, "\x00")
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sp = op.child("wavesegment.optimize")
	for _, k := range order {
		_, _ = wavesegment.OptimizeAll(groups[k], wavesegment.DefaultMaxSamples)
	}
	sp.end()
}

func (w *ingest) verify(ctx context.Context, r *report) error {
	if err := w.d.settleAll(ctx, r); err != nil {
		return err
	}
	from := w.prev[0].packets[0].StartTime()
	return checkOwnTotals(ctx, w.phones, w.acked, from, epoch.Add(w.dayLen), w.cfg.clients)
}

func (w *ingest) close() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}
