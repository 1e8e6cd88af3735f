package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/segstore"
)

// compactInterval is the stores' background compaction period
// (storeserver -compact-interval). Shorter than storeserver's 30 s default
// so a run of a few seconds sees several compaction cycles.
const compactInterval = 2 * time.Second

// server is one loopback HTTP listener serving a handler until closed.
type server struct {
	url  string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// listen reserves a loopback port; start serves on it later, so a store
// can be named by its URL before its handler exists.
func listen() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &server{url: "http://" + ln.Addr().String(), ln: ln, done: make(chan struct{})}, nil
}

// start serves h with the cmd servers' timeouts. hook, when set, wraps
// the handler to record the traced run's server spans.
func (s *server) start(h http.Handler, hook *traceHook) {
	if hook != nil {
		h = hook.wrap(h)
	}
	s.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln) // returns ErrServerClosed on shutdown
	}()
}

func (s *server) close() {
	if s.srv == nil {
		s.ln.Close()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// storeNode is one remote data store: a datastore.Service on segstore
// behind the production store handler and admission controller.
type storeNode struct {
	*server
	svc    *datastore.Service
	ctrl   *overload.Controller
	client *httpapi.StoreClient
}

// segstore returns the store's persistent engine.
func (n *storeNode) segstore() *segstore.Store {
	st, _ := n.svc.Storage().(*segstore.Store)
	return st
}

// trace makes tr (nil: none) the tracer the servers record into.
func (d *deployment) trace(tr *tracer) {
	if d.hook != nil {
		d.hook.cur.Store(tr)
	}
}

// deployment is a broker plus stores, all on loopback, with segstore
// under dir.
type deployment struct {
	dir    string
	broker *server
	bsvc   *broker.Service
	bc     *httpapi.BrokerClient
	stores []*storeNode
	hook   *traceHook // nil unless the run is traced
}

// deploy starts a broker and n stores. Stores register their
// contributors with the broker and push rule replicas to it, as
// storeserver -broker does. A traced deployment can record server spans.
func deploy(dir string, n int, traced bool) (d *deployment, err error) {
	d = &deployment{dir: dir}
	if traced {
		d.hook = &traceHook{}
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	d.bsvc = broker.New()
	if d.broker, err = listen(); err != nil {
		return d, err
	}
	d.broker.start(httpapi.NewBrokerHandlerOverload(d.bsvc, overload.NewController(overload.BrokerDefaults())), d.hook)
	d.bc = &httpapi.BrokerClient{BaseURL: d.broker.url}
	for i := 0; i < n; i++ {
		srv, err := listen()
		if err != nil {
			return d, err
		}
		node := &storeNode{server: srv, ctrl: overload.NewController(overload.StoreDefaults())}
		d.stores = append(d.stores, node)
		node.svc, err = datastore.New(datastore.Options{
			Name:            srv.url,
			Dir:             filepath.Join(dir, fmt.Sprintf("store%d", i)),
			CompactInterval: compactInterval,
			Sync:            d.bc,
			Directory:       d.bc,
		})
		if err != nil {
			return d, fmt.Errorf("open store: %w", err)
		}
		srv.start(httpapi.NewStoreHandlerOverload(node.svc, node.ctrl), d.hook)
		node.client = &httpapi.StoreClient{BaseURL: srv.url}
	}
	return d, nil
}

// close stops every server, closes the stores and removes their files.
func (d *deployment) close() {
	for _, n := range d.stores {
		if n.svc != nil {
			n.svc.Stream().Shutdown()
		}
		n.server.close()
		if n.svc != nil {
			_ = n.svc.Close() // files are removed below
		}
	}
	if d.broker != nil {
		d.broker.close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = os.RemoveAll(d.dir)
}

// contributor is one registered data owner and the store holding its data.
type contributor struct {
	name  string
	key   auth.APIKey
	store *storeNode
}

// register creates contributors on a store and installs their rules.
func register(ctx context.Context, n *storeNode, names []string, rulesJSON []byte) ([]*contributor, error) {
	var out []*contributor
	for _, name := range names {
		u, err := n.client.RegisterCtx(ctx, name, "contributor")
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		if err := n.client.SetRulesCtx(ctx, u.Key, rulesJSON); err != nil {
			return nil, fmt.Errorf("rules for %s: %w", name, err)
		}
		out = append(out, &contributor{name: name, key: u.Key, store: n})
	}
	return out, nil
}

// stateHold is how long an admission state must hold before it counts:
// longer than the controller's recompute period (overload.Config
// RecomputeEvery, 250 ms by default). The controller recomputes pressure
// lazily, so a /healthz reading can predate the last writes; the second
// of two readings further apart than the period is always fresh.
const stateHold = 300 * time.Millisecond

// steady waits until the store is in the state a timed phase starts
// from: /healthz healthy, no sealed memtables awaiting flush, and L0 at or
// under its compaction threshold, holding for stateHold.
func (n *storeNode) steady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	held := time.Time{}
	for {
		_, err := n.storage(ctx)
		if err == nil {
			err = n.healthy(ctx)
		}
		switch {
		case err != nil:
			held = time.Time{}
		case held.IsZero():
			held = time.Now()
		case time.Since(held) > stateHold:
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store %s not steady after %s: %w", n.url, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// settled waits until storage has caught up after a timed phase — no
// sealed memtables, L0 at or under its threshold — and returns the
// admission state /healthz reports once it has held for stateHold. A
// single reading right after the phase can still say healthy while the
// phase's last uploads have filled the memtable past the overload
// threshold; the queries that follow would then be shed.
func (n *storeNode) settled(ctx context.Context, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	held, since := "", time.Time{}
	for {
		state, err := n.storage(ctx)
		switch {
		case err != nil:
			held = ""
		case state != held:
			held, since = state, time.Now()
		case time.Since(since) > stateHold:
			return state, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("%w: admission %q has not held", errNotSteady, state)
			}
			return "", fmt.Errorf("store %s not settled after %s: %w", n.url, timeout, err)
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

var errNotSteady = errors.New("not steady")

// storage checks /healthz answers ok and the segment engine has no flush
// or compaction backlog; it returns the reported admission state.
func (n *storeNode) storage(ctx context.Context) (string, error) {
	h, err := n.client.HealthCtx(ctx)
	if err != nil {
		return "", err
	}
	if h.Status != "ok" {
		return "", fmt.Errorf("%w: status %q", errNotSteady, h.Status)
	}
	st, ok := n.svc.SegmentStoreStats()
	if !ok {
		return "", fmt.Errorf("store is not on segstore")
	}
	if st.SealedMemtables != 0 {
		return "", fmt.Errorf("%w: %d sealed memtables", errNotSteady, st.SealedMemtables)
	}
	if l0 := l0Files(st); l0 > st.L0Threshold {
		return "", fmt.Errorf("%w: %d L0 files over threshold %d", errNotSteady, l0, st.L0Threshold)
	}
	return h.Degradation, nil
}

// healthy checks /healthz reports the admission controller healthy.
func (n *storeNode) healthy(ctx context.Context) error {
	h, err := n.client.HealthCtx(ctx)
	if err != nil {
		return err
	}
	if h.Degradation != "healthy" {
		return fmt.Errorf("%w: admission %q (pressure %.3f)", errNotSteady, h.Degradation, h.Pressure)
	}
	return nil
}

func l0Files(st segstore.Stats) int {
	for _, lv := range st.Levels {
		if lv.Level == 0 {
			return lv.Files
		}
	}
	return 0
}

// uploadAll sends each contributor's timeline in batchPackets-packet
// batches over workers concurrent connections, adding acknowledged rows
// to acked.
func uploadAll(ctx context.Context, cs []*contributor, tls []*timeline, workers int, acked map[string]int) error {
	var mu sync.Mutex
	return parallel(workers, len(cs), func(i int) error {
		c := cs[i]
		for _, b := range batches(tls[i].packets, batchPackets) {
			if _, err := c.store.client.UploadCtx(ctx, c.key, b); err != nil {
				return fmt.Errorf("upload %s: %w", c.name, err)
			}
			mu.Lock()
			acked[c.name] += rows(b)
			mu.Unlock()
		}
		return nil
	})
}

// parallel calls do for every index in [0, n) over workers goroutines,
// worker w taking indexes w, w+workers, ..., and returns the first error;
// a worker stops at its own first error.
func parallel(workers, n int, do func(i int) error) error {
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := do(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// settleAll waits for every store to settle after a timed phase and
// reports the admission state each ended in (0 healthy, 1 degraded, 2
// overloaded). A store left browned out by a memtable near its flush
// trigger stays that way with no writes to trigger the flush, and sheds
// the queries the output checks need, so such a store is flushed, as an
// operator would, once its state is recorded.
func (d *deployment) settleAll(ctx context.Context, r *report) error {
	for i, n := range d.stores {
		state, err := n.settled(ctx, 30*time.Second)
		if err != nil {
			return fmt.Errorf("after the timed phase: %w", err)
		}
		v := map[string]float64{"healthy": 0, "degraded": 1, "overloaded": 2}[state]
		r.add(metric{Name: fmt.Sprintf("overload.state_end.store%d", i), Value: v, Unit: "state", Base: state})
		if state == "healthy" {
			continue
		}
		if err := n.segstore().Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		if err := n.steady(ctx, 30*time.Second); err != nil {
			return fmt.Errorf("after the timed phase and a flush: %w", err)
		}
	}
	return nil
}
