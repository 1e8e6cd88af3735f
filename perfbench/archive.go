package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/wavesegment"
)

// archive is the archive-query workload: two consumers in closed loop,
// each query one contributor over a random one-minute window of a history
// that lives in flushed, compacted segment files, with the audit trail at
// its retention bound throughout.
type archive struct {
	cfg      config
	history  time.Duration
	window   time.Duration
	inputs   []*timeline
	oracles  map[string]*oracle
	analysts []string

	// Per deployment.
	d         *deployment
	contribs  []*contributor
	consumers []auth.APIKey
	auditor   auth.APIKey
	acked     map[string]int // rows acknowledged per contributor
	steps     []metric       // set-up step timings of the last set-up
	setups    int            // set-ups done
}

// archiveStart is where the archive's hour of history begins: Friday
// 23:30 UTC, so the weekday-only rule flips at midnight inside it.
var archiveStart = epoch.Add(30 * time.Minute)

func newArchive(cfg config) (workload, error) {
	a := &archive{cfg: cfg, history: time.Hour, window: time.Minute, oracles: map[string]*oracle{}}
	n := 8
	if cfg.smoke {
		n, a.history = 2, 20*time.Minute
	}
	for i := 0; i < cfg.clients; i++ {
		a.analysts = append(a.analysts, fmt.Sprintf("analyst-%d", i+1))
	}
	for i := 0; i < n; i++ {
		tl, err := genTimeline(fmt.Sprintf("c%02d", i), cfg.seed*1000+int64(i), i, archiveStart, a.history)
		if err != nil {
			return nil, err
		}
		a.inputs = append(a.inputs, tl)
		a.oracles[tl.contributor] = newOracle(tl)
	}
	return a, nil
}

func (a *archive) setup(ctx context.Context) error {
	d, err := deploy(fmt.Sprintf("%s/d%d", a.cfg.workdir, time.Now().UnixNano()), 1, a.cfg.trace)
	if err != nil {
		return err
	}
	a.d = d
	store := d.stores[0]
	names := make([]string, len(a.inputs))
	for i, tl := range a.inputs {
		names[i] = tl.contributor
	}
	if a.contribs, err = register(ctx, store, names, ruleSet(a.analysts, "auditor", false)); err != nil {
		return err
	}
	a.consumers = nil
	for _, name := range a.analysts {
		u, err := store.client.RegisterCtx(ctx, name, "consumer")
		if err != nil {
			return err
		}
		a.consumers = append(a.consumers, u.Key)
	}
	u, err := store.client.RegisterCtx(ctx, "auditor", "consumer")
	if err != nil {
		return err
	}
	a.auditor = u.Key

	// Load the history over nproc phone connections.
	a.steps = nil
	t0 := time.Now()
	a.acked = map[string]int{}
	if err := uploadAll(ctx, a.contribs, a.inputs, a.cfg.clients, a.acked); err != nil {
		return err
	}
	if a.setups++; a.setups == a.cfg.setups {
		releasePackets(a.inputs) // the oracles keep what the checks need
	}
	a.steps = append(a.steps, metric{Name: "setup.load_s", Value: time.Since(t0).Seconds(), Unit: "s"})
	// The archive lives in flushed, compacted files.
	t0 = time.Now()
	if err := store.segstore().Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	if err := store.steady(ctx, 30*time.Second); err != nil {
		return err
	}
	a.steps = append(a.steps, metric{Name: "setup.compact_s", Value: time.Since(t0).Seconds(), Unit: "s"})
	t0 = time.Now()
	queries, err := fillTrail(ctx, store, a.auditor, a.contribs, archiveStart, a.history, a.cfg.seed, a.cfg.clients)
	if err != nil {
		return err
	}
	a.steps = append(a.steps, metric{Name: "setup.audit_fill_s", Value: time.Since(t0).Seconds(), Unit: "s", Samples: queries})
	return store.steady(ctx, 30*time.Second)
}

// fillTrail brings a store's audit trail to its retention bound through
// real consumer queries. An auditor who may see only moving/not-moving
// labels records one event per released span, and a whole-store query
// records the same number every time, so whole-store queries run back to
// back over workers connections while a round of them still fits under
// the bound; ever smaller single-contributor windows of the history
// [from, from+history) then land on the bound instead of paying the
// full-trail copy many times over. It returns the number of queries.
func fillTrail(ctx context.Context, node *storeNode, auditor auth.APIKey, cs []*contributor, from time.Time, history time.Duration, seed int64, workers int) (queries int, err error) {
	rng := rand.New(rand.NewSource(seed))
	var asked atomic.Int64
	ask := func(q *query.Query) error {
		asked.Add(1)
		if _, err := node.client.QueryCtx(ctx, auditor, q); err != nil {
			return fmt.Errorf("audit fill: %w (admission %+v)", err, node.ctrl.Snapshot())
		}
		return nil
	}
	defer func() { queries = int(asked.Load()) }()
	n, err := trailLen(ctx, cs)
	if err != nil {
		return 0, err
	}
	if err := ask(&query.Query{}); err != nil {
		return 0, err
	}
	m, err := trailLen(ctx, cs)
	if err != nil {
		return 0, err
	}
	full := m - n
	if full <= 0 {
		return 0, fmt.Errorf("audit fill: a whole-store query recorded no events")
	}
	rounds := (audit.DefaultLimit - m) / full // whole-store queries that still fit
	if err := parallel(workers, rounds, func(int) error { return ask(&query.Query{}) }); err != nil {
		return 0, err
	}
	perSec := float64(full) / float64(len(cs)) / history.Seconds()
	for {
		if n, err = trailLen(ctx, cs); err != nil || n >= audit.DefaultLimit {
			return 0, err
		}
		w := time.Duration(float64(audit.DefaultLimit-n) / 2 / perSec * float64(time.Second))
		w = min(max(w, time.Second), history)
		at := from.Add(time.Duration(rng.Int63n(int64(history-w) + 1)))
		if err := ask(&query.Query{Contributor: cs[rng.Intn(len(cs))].name, From: at, To: at.Add(w)}); err != nil {
			return 0, err
		}
	}
}

func (a *archive) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase("query")
	store := a.d.stores[0]
	var before *snapshot
	var trailStart int
	var err error
	if tr != nil {
		if before, err = takeSnapshot(ctx, a.d); err != nil {
			return nil, err
		}
		if trailStart, err = trailLen(ctx, a.contribs); err != nil {
			return nil, err
		}
		a.d.trace(tr)
		defer a.d.trace(nil)
	}
	samp := sample(a.d, 20*time.Millisecond)
	start := time.Now()
	deadline := start.Add(d)
	var replays int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range a.consumers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(a.cfg.seed*7919 + int64(w)))
			key := a.consumers[w]
			n := 0
			for i := 0; time.Now().Before(deadline); i++ {
				// The consumers take the contributors in turn, so a run
				// queries each about equally often; windows are random.
				c := a.contribs[(i*len(a.consumers)+w)%len(a.contribs)]
				from := archiveStart.Add(time.Duration(rng.Int63n(int64(a.history-a.window)/int64(time.Second))) * time.Second)
				q := &query.Query{Contributor: c.name, From: from, To: from.Add(a.window)}
				op := tr.op("op.query")
				cl := op.child("httpapi.client")
				t0 := time.Now()
				rels, err := store.client.QueryCtx(cl.ctx(ctx), key, q)
				lat := time.Since(t0)
				cl.end()
				ph.op(lat, err)
				if err == nil {
					o := a.oracles[c.name]
					if _, cerr := o.checkReleases(rels, q.From, q.To); cerr != nil {
						ph.failf("query %s: %v", q, cerr)
					}
					ph.rows.Add(int64(o.storedIn(q.From, q.To)))
				}
				if tr != nil {
					encodeDecode(op, replayQuery(ctx, op, store.svc, a.analysts[w], key, q))
					n++
				}
				op.end()
			}
			mu.Lock()
			replays += int64(n)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	samp.end()
	ph.extra = append(ph.extra, a.steps...)
	ph.extra = append(ph.extra, metric{Name: "queries_per_s", Value: float64(len(ph.primary.ms)) / ph.elapsed.Seconds(), Unit: "1/s", Samples: len(ph.primary.ms)})
	if tr != nil {
		after, err := takeSnapshot(ctx, a.d)
		if err != nil {
			return nil, err
		}
		trail, err := trailLen(ctx, a.contribs)
		if err != nil {
			return nil, err
		}
		ph.layerIn = &layerInput{
			before: before, after: after, tr: tr, ops: len(ph.primary.ms), route: "/api/query",
			replayQueries: int(replays), samp: samp, trail: trail, trailStart: trailStart,
			authUS: authMicros(store.svc.Users(), a.consumers[0], 10000),
		}
	}
	return ph, nil
}

// replayQuery re-runs one store query's layers by calling each layer's
// public function directly, each under its own span: the datastore as a
// whole, the segment scan and rule enforcement. It returns the releases
// enforcement produced, for the codec replay.
func replayQuery(ctx context.Context, op *active, svc *datastore.Service, consumer string, key auth.APIKey, q *query.Query) []*abstraction.Release {
	sp := op.child("datastore.query")
	_, _ = svc.QueryCtx(ctx, key, q)
	sp.end()

	sp = op.child("segstore.scan")
	res, err := svc.Storage().ScanRefs(q.Storage())
	sp.end()
	if err != nil {
		return nil
	}
	decider, _, err := svc.StreamEngine(q.Contributor)
	if err != nil || decider == nil {
		return nil
	}
	groups := svc.StreamGroups(q.Contributor, consumer)
	var rels []*abstraction.Release
	segs := 0
	sp = op.child("abstraction.enforce")
	for _, r := range res {
		seg := r.Segment.Slice(q.From, q.To)
		if seg == nil {
			continue
		}
		segs++
		out, _, err := abstraction.EnforceExplained(decider, consumer, groups, seg, geo.GridGeocoder{})
		if err == nil {
			rels = append(rels, out...)
		}
	}
	sp.end()
	op.tr.count("segments", float64(segs))
	op.tr.count("releases", float64(len(rels)))
	return rels
}

// wireReleases is the store's /api/query response shape.
type wireReleases struct {
	Releases []*abstraction.Release `json:"releases"`
}

// encodeDecode times the response encoding of releases as the store
// writes it and its decoding as the client reads it.
func encodeDecode(op *active, rels []*abstraction.Release) (size int) {
	sp := op.child("httpapi.encode")
	body, err := json.Marshal(wireReleases{Releases: rels})
	sp.end()
	if err != nil {
		return 0
	}
	sp = op.child("httpapi.client_decode")
	var back wireReleases
	_ = json.Unmarshal(body, &back)
	sp.end()
	op.tr.count("resp_bytes", float64(len(body)))
	op.tr.count("responses", 1)
	return len(body)
}

func (a *archive) verify(ctx context.Context, r *report) error {
	if err := a.d.settleAll(ctx, r); err != nil {
		return err
	}
	n, err := trailLen(ctx, a.contribs)
	if err != nil {
		return err
	}
	if n != audit.DefaultLimit {
		return fmt.Errorf("audit trail holds %d events after the timed phase, want its bound %d", n, audit.DefaultLimit)
	}
	return checkOwnTotals(ctx, a.contribs, a.acked, archiveStart, archiveStart.Add(a.history), a.cfg.clients)
}

// checkOwnTotals checks that each owner's QueryOwn over [from, to),
// asked an hour at a time over workers connections, returns exactly the
// samples acknowledged for them.
func checkOwnTotals(ctx context.Context, cs []*contributor, acked map[string]int, from, to time.Time, workers int) error {
	return parallel(workers, len(cs), func(i int) error {
		return checkOwnTotal(ctx, cs[i], acked[cs[i].name], from, to)
	})
}

func checkOwnTotal(ctx context.Context, c *contributor, acked int, from, to time.Time) error {
	got := 0
	for w := from; w.Before(to); w = w.Add(time.Hour) {
		end := w.Add(time.Hour)
		if end.After(to) {
			end = to
		}
		segs, err := c.store.client.QueryOwnCtx(ctx, c.key, &query.Query{From: w, To: end})
		if err != nil {
			return fmt.Errorf("QueryOwn %s: %w", c.name, err)
		}
		got += rowsIn(segs, w, end)
	}
	if got != acked {
		return fmt.Errorf("QueryOwn %s returned %d samples, %d were acknowledged", c.name, got, acked)
	}
	return nil
}

// rowsIn counts samples of segs inside [from, to).
func rowsIn(segs []*wavesegment.Segment, from, to time.Time) int {
	n := 0
	for _, s := range segs {
		if p := s.Slice(from, to); p != nil {
			n += p.NumSamples()
		}
	}
	return n
}

func (a *archive) close() {
	if a.d != nil {
		a.d.close()
		a.d = nil
	}
}
