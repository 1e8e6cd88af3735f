package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/federation"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/query"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// Live-cohort shape: contributors per store, the history each holds
// before the run, the open-loop upload rate, the packets per live upload,
// the cohort window and the rule-edit period.
const (
	cohortPerStore   = 2
	cohortPreload    = 30 * time.Minute
	cohortRate       = 2                           // uploads per second, across all contributors
	cohortPackets    = 2                           // one chest-band and one phone packet
	cohortWindow     = 2 * 6400 * time.Millisecond // the last two 64-sample packets of every stream
	cohortWarm       = 2                           // live uploads per contributor in set-up: one cohort window
	ruleEditInterval = time.Second
)

// livePhases are the sensors.DayInTheLife phases the contributors' live
// data starts in: desk work (stressed), the commute (stressed, driving),
// the walk in conversation, the smoke break.
var livePhases = []int{3, 1, 2, 4}

// cohort is the live-cohort workload: phones upload at a fixed rate to
// two stores while one consumer follows a live stream and runs
// closed-loop cohort queries (broker search, connect, federation
// scatter-gather) over the most recent data, and contributors edit their
// rules periodically.
type cohort struct {
	cfg     config
	inputs  []*timeline
	oracles map[string]*oracle
	live    [][][]*wavesegment.Segment // per contributor, the live uploads
	end     time.Time                  // where the generated timelines end
	d       *deployment
	key     auth.APIKey // the consumer's broker key
	conts   []*contributor
	// storeKeys are the consumer's store credentials, for direct replays.
	storeKeys map[string]auth.APIKey
	// follow is the stream subscription on the first contributor, and
	// streamFrom where its first live upload after subscribing starts.
	sub        stream.SubInfo
	subKey     auth.APIKey
	cursor     string
	lastSeq    uint64
	streamFrom time.Time
	// Per deployment, the live progress: next upload per contributor and
	// the instant up to which each contributor's data is acknowledged.
	next    []int
	horizon []atomic.Int64
	acked   map[string]int
	// streamed rows and the span of data uploaded since subscribing.
	streamed, gaps int
	mu             sync.Mutex
	ackAt          map[int64]time.Time // upload start (ns) → ack time, first contributor; guarded by mu
	edits          int
	raced          atomic.Int64 // cohort reads that raced a tail coalesce
	steps          []metric     // set-up step timings of the last set-up
	setups         int          // set-ups done
}

func newCohort(cfg config) (workload, error) {
	c := &cohort{cfg: cfg, oracles: map[string]*oracle{}}
	n := 2 * cohortPerStore
	// Enough live data for twice the run at the configured rate.
	perSecond := float64(cohortRate) / float64(n) * cohortPackets / 2 * 6.4
	liveLen := time.Duration(2*cfg.seconds*perSecond+60) * time.Second
	c.end = epoch.Add(cohortPreload + liveLen)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%02d", i)
		tl, err := genTimeline(name, cfg.seed*1000+int64(i), i, epoch, cohortPreload)
		if err != nil {
			return nil, err
		}
		// The live part starts a storyline phase of its own, each phase
		// longer than the live part, so every seed queries the same mix of
		// contexts while live: stressed desk work, a stressful drive, a
		// weekday conversation, and a smoke break.
		live, err := genTimeline(name, cfg.seed*1000+500+int64(i), livePhases[i%len(livePhases)], epoch.Add(cohortPreload), liveLen)
		if err != nil {
			return nil, err
		}
		c.live = append(c.live, batches(live.packets, cohortPackets))
		tl.packets = append(tl.packets, live.packets...)
		tl.truth = append(tl.truth, live.truth...)
		c.inputs = append(c.inputs, tl)
		c.oracles[name] = newOracle(tl)
	}
	return c, nil
}

func (c *cohort) setup(ctx context.Context) error {
	d, err := deploy(fmt.Sprintf("%s/d%d", c.cfg.workdir, time.Now().UnixNano()), 2, c.cfg.trace)
	if err != nil {
		return err
	}
	c.d = d
	c.conts = nil
	for s, node := range d.stores {
		var names []string
		for i := s * cohortPerStore; i < (s+1)*cohortPerStore; i++ {
			names = append(names, c.inputs[i].contributor)
		}
		cs, err := register(ctx, node, names, ruleSet([]string{"analyst-1"}, "auditor", false))
		if err != nil {
			return err
		}
		c.conts = append(c.conts, cs...)
	}
	u, err := d.bc.RegisterConsumerCtx(ctx, "analyst-1")
	if err != nil {
		return err
	}
	c.key = u.Key

	// History before the run.
	pre := make([]*timeline, len(c.inputs))
	for i, tl := range c.inputs {
		split := sort.Search(len(tl.packets), func(k int) bool { return !tl.packets[k].StartTime().Before(epoch.Add(cohortPreload)) })
		pre[i] = &timeline{contributor: tl.contributor, packets: tl.packets[:split]}
	}
	c.steps = nil
	t0 := time.Now()
	c.acked = map[string]int{}
	if err := uploadAll(ctx, c.conts, pre, c.cfg.clients, c.acked); err != nil {
		return err
	}
	if c.setups++; c.setups == c.cfg.setups {
		releasePackets(c.inputs) // c.live keeps the live batches; the oracles keep the rest
	}
	// A bulk load leaves the memtable near its flush trigger, which the
	// admission controller reads as overload; flush it, as an operator
	// would, so the run starts healthy with a memtable holding only live
	// data.
	for _, node := range d.stores {
		if err := node.segstore().Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	c.next = make([]int, len(c.conts))
	c.horizon = make([]atomic.Int64, len(c.conts))
	for i := range c.horizon {
		c.horizon[i].Store(epoch.Add(cohortPreload).UnixNano())
	}
	c.mu.Lock()
	c.ackAt = map[int64]time.Time{}
	c.mu.Unlock()
	// Upload one cohort window of live data, so the timed phase's first
	// cohort query already reads the memtable, as every later one does.
	for k := 0; k < cohortWarm; k++ {
		for i := range c.conts {
			if err := c.uploadLive(ctx, i); err != nil {
				return err
			}
		}
	}
	for _, node := range d.stores {
		if err := node.steady(ctx, 30*time.Second); err != nil {
			return err
		}
	}
	c.steps = append(c.steps, metric{Name: "setup.load_s", Value: time.Since(t0).Seconds(), Unit: "s"})
	t0 = time.Now()
	// Both stores fill at once, one connection each.
	var queries atomic.Int64
	err = parallel(len(d.stores), len(d.stores), func(s int) error {
		node := d.stores[s]
		u, err := node.client.RegisterCtx(ctx, "auditor", "consumer")
		if err != nil {
			return err
		}
		n, err := fillTrail(ctx, node, u.Key, c.conts[s*cohortPerStore:(s+1)*cohortPerStore], epoch, cohortPreload, c.cfg.seed+int64(s), 1)
		queries.Add(int64(n))
		return err
	})
	if err != nil {
		return err
	}
	c.steps = append(c.steps, metric{Name: "setup.audit_fill_s", Value: time.Since(t0).Seconds(), Unit: "s", Samples: int(queries.Load())})
	// Follow the first contributor's live stream with the store
	// credential the broker provisions.
	c.storeKeys = map[string]auth.APIKey{}
	for _, ct := range c.conts {
		cred, err := d.bc.ConnectCtx(ctx, c.key, ct.name)
		if err != nil {
			return err
		}
		c.storeKeys[ct.name] = cred.Key
	}
	c.subKey = c.storeKeys[c.conts[0].name]
	if c.sub, err = c.conts[0].store.client.SubscribeCtx(ctx, c.subKey, c.conts[0].name, nil); err != nil {
		return err
	}
	c.cursor, c.lastSeq, c.streamed, c.gaps = c.sub.Cursor, 0, 0, 0
	c.streamFrom = c.live[0][c.next[0]][0].StartTime()
	for _, node := range d.stores {
		if err := node.steady(ctx, 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

func (c *cohort) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase("cohort", "upload", "stream_lag", "rules")
	var before *snapshot
	var trailStart int
	var err error
	if tr != nil {
		if before, err = takeSnapshot(ctx, c.d); err != nil {
			return nil, err
		}
		if trailStart, err = c.minTrail(ctx); err != nil {
			return nil, err
		}
		c.d.trace(tr)
		defer c.d.trace(nil)
	}
	samp := sample(c.d, 20*time.Millisecond)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.phone(ctx, ph, tr, start, deadline)
	}()
	var replays int
	go func() {
		defer wg.Done()
		replays = c.consumer(ctx, ph, tr, deadline)
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	samp.end()
	ph.extra = append(ph.extra, c.steps...)
	ph.extra = append(ph.extra, metric{Name: "overload.pressure_max", Value: samp.pressMax, Unit: "ratio"})
	ph.extra = append(ph.extra, metric{Name: "cohort.coalesce_races", Value: float64(c.raced.Load()), Unit: "count", Base: "cohort queries that missed rows a concurrent upload was rewriting"})
	if tr != nil {
		after, err := takeSnapshot(ctx, c.d)
		if err != nil {
			return nil, err
		}
		trail, err := c.minTrail(ctx)
		if err != nil {
			return nil, err
		}
		ph.layerIn = &layerInput{
			before: before, after: after, tr: tr, ops: len(ph.primary.ms), route: "/api/query",
			replayQueries: replays, samp: samp, trail: trail, trailStart: trailStart,
			authUS: authMicros(c.d.stores[0].svc.Users(), c.conts[0].key, 10000),
		}
	}
	return ph, nil
}

// minTrail returns the shorter of the two stores' audit trails.
func (c *cohort) minTrail(ctx context.Context) (int, error) {
	trail := audit.DefaultLimit
	for s := range c.d.stores {
		n, err := trailLen(ctx, c.conts[s*cohortPerStore:(s+1)*cohortPerStore])
		if err != nil {
			return 0, err
		}
		trail = min(trail, n)
	}
	return trail, nil
}

// phone is the open-loop writer: one upload every 1/cohortRate seconds,
// round robin over the contributors, timed from when it was due, plus a
// rule edit every ruleEditInterval. It reports gen_late_ms, the most the
// generator fell behind a due time.
func (c *cohort) phone(ctx context.Context, ph *phase, tr *tracer, start, deadline time.Time) {
	every := time.Second / cohortRate
	nextEdit := start.Add(ruleEditInterval)
	var late time.Duration
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(deadline) {
			ph.extra = append(ph.extra, metric{Name: "gen_late_ms", Value: float64(late) / float64(time.Millisecond), Unit: "ms", Samples: k, Base: "maximum over due times"})
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		late = max(late, time.Since(due))
		if !due.Before(nextEdit) {
			c.editRules(ctx, ph, tr)
			nextEdit = nextEdit.Add(ruleEditInterval)
		}
		i := k % len(c.conts)
		if c.next[i] >= len(c.live[i]) {
			continue
		}
		op := tr.op("op.upload")
		cl := op.child("httpapi.client")
		err := c.uploadLive(cl.ctx(ctx), i)
		cl.end()
		op.end()
		ph.secondary("upload", time.Since(due), err)
	}
}

// uploadLive sends contributor i's next live upload and, once it is
// acknowledged, advances the contributor's progress: the rows
// acknowledged, the acknowledgement time the stream lag is measured from,
// and the horizon cohort windows end at.
func (c *cohort) uploadLive(ctx context.Context, i int) error {
	ct, b := c.conts[i], c.live[i][c.next[i]]
	if _, err := ct.store.client.UploadCtx(ctx, ct.key, b); err != nil {
		return err
	}
	c.next[i]++
	c.acked[ct.name] += rows(b)
	if i == 0 {
		c.mu.Lock()
		c.ackAt[b[0].StartTime().UnixNano()] = time.Now()
		c.mu.Unlock()
	}
	c.horizon[i].Store(b[len(b)-1].EndTime().UnixNano())
	return nil
}

// follow drains what the stream has ready, checking and timing each
// delivery and acknowledging each batch it took. Every Next counts as an
// attempted operation, and fails with its acknowledgement.
func (c *cohort) follow(ctx context.Context, ph *phase, tr *tracer) {
	client := c.conts[0].store.client
	for {
		op := tr.op("op.stream")
		cl := op.child("httpapi.client")
		batch, err := client.NextCtx(cl.ctx(ctx), c.subKey, c.sub.ID, c.cursor, 0)
		cl.end()
		now := time.Now()
		if err == nil {
			c.take(ph, tr, batch, now)
		}
		if err == nil && len(batch.Events) > 0 {
			ack := op.child("httpapi.client")
			err = client.AckStreamCtx(ack.ctx(ctx), c.subKey, c.sub.ID, c.cursor)
			ack.end()
		}
		op.end()
		ph.secondary("stream", 0, err)
		if err != nil || len(batch.Events) == 0 {
			return
		}
	}
}

// take checks one stream batch: sequence numbers strictly increase (no
// segment twice), gaps carry their exact count, and data releases obey
// the rules; the lag of each delivery is measured from its upload's ack.
func (c *cohort) take(ph *phase, tr *tracer, batch stream.Batch, now time.Time) {
	for _, ev := range batch.Events {
		if ev.Seq <= c.lastSeq {
			ph.failf("stream delivered seq %d after %d", ev.Seq, c.lastSeq)
		}
		c.lastSeq = ev.Seq
		switch ev.Kind {
		case stream.KindGap:
			c.gaps += int(ev.Dropped)
			tr.count("stream_gaps", float64(ev.Dropped))
		case stream.KindData:
			n, err := c.oracles[c.conts[0].name].checkPrivacy(ev.Releases)
			if err != nil {
				ph.failf("stream: %v", err)
			}
			c.streamed += n
			tr.count("stream_delivered", 1)
			if len(ev.Releases) > 0 {
				if at, ok := c.ackOf(ev.Releases[0].Start); ok {
					ph.series["stream_lag"].add(max(now.Sub(at), 0))
				}
			}
		}
	}
	if batch.Cursor != "" {
		c.cursor = batch.Cursor
	}
}

// ackOf finds when the upload holding instant t was acknowledged.
func (c *cohort) ackOf(t time.Time) (time.Time, bool) {
	span := int64(cohortPackets / 2 * 64 * 100 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for start, at := range c.ackAt {
		if t.UnixNano() >= start && t.UnixNano() < start+span {
			return at, true
		}
	}
	return time.Time{}, false
}

// editRules rewrites one contributor's rule set, alternating a rule for a
// consumer who never queries: each edit recompiles the index, drops its
// decision cache and syncs to the broker, without changing what the
// benchmark's consumer may see.
func (c *cohort) editRules(ctx context.Context, ph *phase, tr *tracer) {
	ct := c.conts[c.edits%len(c.conts)]
	extra := (c.edits/len(c.conts))%2 == 0
	c.edits++
	op := tr.op("op.rules")
	cl := op.child("httpapi.client")
	t0 := time.Now()
	err := ct.store.client.SetRulesCtx(cl.ctx(ctx), ct.key, ruleSet([]string{"analyst-1"}, "auditor", extra))
	cl.end()
	op.end()
	ph.secondary("rules", time.Since(t0), err)
}

// consumer runs closed-loop cohort queries over the most recent window
// of acknowledged data and returns how many direct datastore replays the
// traced run made.
func (c *cohort) consumer(ctx context.Context, ph *phase, tr *tracer, deadline time.Time) int {
	eng := c.engine(tr)
	search := &broker.SearchQuery{Sensors: []string{wavesegment.ChannelAccelX}, Reference: epoch}
	replays := 0
	for time.Now().Before(deadline) {
		c.follow(ctx, ph, tr)
		to := time.Unix(0, c.minHorizon()).UTC()
		from := to.Add(-cohortWindow)
		op := tr.op("op.cohort")
		fc := op.child("federation.cohort")
		t0 := time.Now()
		res, err := eng.CohortQuery(context.WithValue(fc.ctx(ctx), spanKey{}, fc), &federation.Request{
			Cohort: federation.Cohort{Search: search},
			Query:  &query.Query{From: from, To: to},
		})
		lat := time.Since(t0)
		fc.end()
		if err == nil {
			err = c.checkCohort(ctx, ph, tr, res, from, to)
		}
		ph.op(lat, err)
		if tr != nil {
			replays += c.replay(ctx, op, from, to)
		}
		op.end()
	}
	return replays
}

func (c *cohort) minHorizon() int64 {
	h := c.horizon[0].Load()
	for i := range c.horizon {
		h = min(h, c.horizon[i].Load())
	}
	return h
}

// checkCohort checks that every cohort member reported OK and released
// exactly the oracle's rows for the window. A member that released fewer
// rows is asked again alone: if the rows are all there now, the first
// answer raced a concurrent upload's tail coalesce (a delete, then a
// put, visible to readers in between) and the query counts as failed;
// rows missing on the second asking, or rows beyond the oracle, fail the
// output check.
func (c *cohort) checkCohort(ctx context.Context, ph *phase, tr *tracer, res *federation.Result, from, to time.Time) error {
	if res.Partial {
		tr.count("partial", 1)
		ph.failf("cohort result partial: %+v", res.Reports)
	}
	if len(res.Reports) != len(c.conts) {
		ph.failf("cohort reported %d members, want %d", len(res.Reports), len(c.conts))
	}
	for _, rep := range res.Reports {
		if rep.Outcome != federation.OutcomeOK {
			ph.failf("cohort member %s: %s %s", rep.Contributor, rep.Outcome, rep.Error)
		}
	}
	by := map[string][]*abstraction.Release{}
	for _, r := range res.Releases {
		by[r.Contributor] = append(by[r.Contributor], r)
	}
	var raced error
	for _, ct := range c.conts {
		o := c.oracles[ct.name]
		ph.rows.Add(int64(o.storedIn(from, to)))
		n, err := o.checkPrivacy(by[ct.name])
		if err != nil {
			ph.failf("cohort %s: %v", ct.name, err)
			continue
		}
		want := o.releasedIn(from, to)
		if n == want {
			continue
		}
		again, err := ct.store.client.QueryCtx(ctx, c.storeKeys[ct.name], &query.Query{Contributor: ct.name, From: from, To: to})
		if err == nil && n < want {
			if m, _ := o.checkReleases(again, from, to); m == want {
				c.raced.Add(1)
				raced = fmt.Errorf("cohort read raced a tail coalesce: %s released %d of %d rows", ct.name, n, want)
				continue
			}
		}
		ph.failf("cohort %s: released %d rows in [%s, %s), oracle says %d", ct.name, n, from.Format(time.RFC3339), to.Format(time.RFC3339), want)
	}
	return raced
}

// replay re-runs each member's store query layer by layer against its
// datastore, and the response codec over the merged releases.
func (c *cohort) replay(ctx context.Context, op *active, from, to time.Time) int {
	var all []*abstraction.Release
	for _, ct := range c.conts {
		q := &query.Query{Contributor: ct.name, From: from, To: to}
		all = append(all, replayQuery(ctx, op, ct.store.svc, "analyst-1", c.storeKeys[ct.name], q)...)
	}
	encodeDecode(op, all)
	return len(c.conts)
}

// engine is the consumer's federation engine: the production wiring, with
// broker and store calls wrapped in spans when traced. Store fetches run
// one at a time, so the consumer holds one connection.
func (c *cohort) engine(tr *tracer) *federation.Engine {
	opts := federation.Options{Concurrency: 1}
	if tr == nil {
		return httpapi.NewFederation(c.d.bc, c.key, opts)
	}
	eng := httpapi.NewFederationDialer(c.d.bc, c.key, opts, func(addr string) federation.Store {
		return tracedStore{&httpapi.StoreClient{BaseURL: addr}}
	})
	eng.Broker = tracedBroker{c.d.bc}
	return eng
}

// spanKey carries the enclosing benchmark span through the federation
// engine to the wrapped broker and store calls.
type spanKey struct{}

func spanOf(ctx context.Context) *active {
	a, _ := ctx.Value(spanKey{}).(*active)
	return a
}

// tracedBroker times the federation engine's broker calls.
type tracedBroker struct{ *httpapi.BrokerClient }

func (b tracedBroker) SearchInfoCtx(ctx context.Context, key auth.APIKey, q *broker.SearchQuery) ([]broker.SearchHit, error) {
	sp := spanOf(ctx).child("broker.search")
	defer sp.end()
	return b.BrokerClient.SearchInfoCtx(sp.ctx(ctx), key, q)
}

func (b tracedBroker) ConnectCtx(ctx context.Context, key auth.APIKey, contributor string) (broker.Credential, error) {
	sp := spanOf(ctx).child("broker.connect")
	defer sp.end()
	return b.BrokerClient.ConnectCtx(sp.ctx(ctx), key, contributor)
}

// tracedStore times the federation engine's per-store fetches.
type tracedStore struct{ *httpapi.StoreClient }

func (s tracedStore) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	sp := spanOf(ctx).child("federation.store")
	defer sp.end()
	return s.StoreClient.QueryCtx(sp.ctx(ctx), key, q)
}

func (c *cohort) verify(ctx context.Context, r *report) error {
	if err := c.d.settleAll(ctx, r); err != nil {
		return err
	}
	n, err := c.minTrail(ctx)
	if err != nil {
		return err
	}
	if n != audit.DefaultLimit {
		return fmt.Errorf("a store's audit trail holds %d events, want its bound %d", n, audit.DefaultLimit)
	}
	// Drain the stream: everything uploaded for the followed contributor
	// since subscribing arrives exactly once, or is counted in a gap.
	for {
		batch, err := c.conts[0].store.client.NextCtx(ctx, c.subKey, c.sub.ID, c.cursor, 200*time.Millisecond)
		if err != nil {
			return fmt.Errorf("stream drain: %w", err)
		}
		ph := newPhase("drain", "stream_lag")
		c.take(ph, nil, batch, time.Now())
		if len(ph.checkErrs) > 0 {
			return fmt.Errorf("%s", ph.checkErrs[0])
		}
		if len(batch.Events) == 0 {
			break
		}
	}
	if err := c.conts[0].store.client.AckStreamCtx(ctx, c.subKey, c.sub.ID, c.cursor); err != nil {
		return fmt.Errorf("stream ack: %w", err)
	}
	first := c.streamFrom
	upto := time.Unix(0, c.horizon[0].Load()).UTC()
	want := c.oracles[c.conts[0].name].releasedIn(first, upto)
	if c.gaps == 0 && c.streamed != want {
		return fmt.Errorf("stream delivered %d rows, oracle says %d for [%s, %s)", c.streamed, want, first, upto)
	}
	if c.gaps > 0 && c.streamed > want {
		return fmt.Errorf("stream delivered %d rows past %d gap segments, more than the oracle's %d", c.streamed, c.gaps, want)
	}
	cur, err := strconv.ParseUint(c.cursor, 10, 64)
	if err != nil || cur < c.lastSeq {
		return fmt.Errorf("stream cursor %q behind last delivered seq %d", c.cursor, c.lastSeq)
	}
	return checkOwnTotals(ctx, c.conts, c.acked, epoch, c.end, c.cfg.clients)
}

func (c *cohort) close() {
	if c.d != nil {
		c.d.close()
		c.d = nil
	}
}
