package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// maxCheckErrs bounds how many failed checks a run keeps for its report.
const maxCheckErrs = 10

// phase is what one timed phase measured: the workload's primary
// operation (query, upload or cohort query), secondary timing series,
// and the output checks.
type phase struct {
	primaryName string
	primary     *latencies
	series      map[string]*latencies // secondary series, by metric prefix
	elapsed     time.Duration

	attempted, failed int64
	rows              atomic.Int64 // stored samples the primary ops covered

	mu        sync.Mutex
	checkErrs []string
	errSeen   map[string]int // failed-op messages, by text
	extra     []metric       // workload-specific end-to-end metrics

	layerIn *layerInput // set by a traced phase
}

func newPhase(primary string, series ...string) *phase {
	p := &phase{primaryName: primary, primary: &latencies{}, series: map[string]*latencies{}, errSeen: map[string]int{}}
	for _, s := range series {
		p.series[s] = &latencies{}
	}
	return p
}

// op records one attempted primary operation.
func (p *phase) op(d time.Duration, err error) { p.record(p.primary, d, err) }

// secondary records one attempted secondary operation (an upload, a
// stream read or a rule edit beside live-cohort's queries): it counts
// toward attempted and failed, and its latency goes to the named series,
// if there is one.
func (p *phase) secondary(name string, d time.Duration, err error) {
	p.record(p.series[name], d, err)
}

func (p *phase) record(l *latencies, d time.Duration, err error) {
	atomic.AddInt64(&p.attempted, 1)
	if err != nil {
		atomic.AddInt64(&p.failed, 1)
		p.mu.Lock()
		p.errSeen[err.Error()]++
		p.mu.Unlock()
		return
	}
	if l != nil {
		l.add(d)
	}
}

// fail records a failed output check.
func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.checkErrs) < maxCheckErrs {
		p.checkErrs = append(p.checkErrs, err.Error())
	}
}

func (p *phase) failf(format string, args ...any) { p.fail(fmt.Errorf(format, args...)) }

// merge folds an earlier phase's counts and checks into p.
func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.checkErrs {
		p.fail(errors.New(e))
	}
	for k, v := range o.errSeen {
		p.errSeen[k] += v
	}
}

// endToEnd reports the generic primary-op metrics every workload shares,
// then each secondary series and the workload's own metrics under their
// own names.
func (p *phase) endToEnd(r *report) {
	s := p.primary.sorted()
	pct, v := tail(s)
	secs := p.elapsed.Seconds()
	r.add(metric{Name: "op_p50_ms", Value: median(s), Unit: "ms", Samples: len(s), Base: p.primaryName})
	r.add(metric{Name: "op_tail_ms", Value: v, Unit: "ms", Samples: len(s), Pct: pct, Base: p.primaryName})
	r.add(metric{Name: "samples_per_s", Value: float64(p.rows.Load()) / secs, Unit: "1/s", Samples: len(s), Base: "stored samples covered per second by " + p.primaryName})
	r.latency(p.primaryName, p.primary)
	for _, name := range sortedKeys(p.series) {
		r.latency(name, p.series[name])
	}
	for _, m := range p.extra {
		r.add(m)
	}
	for msg, n := range p.errSeen {
		r.add(metric{Name: "failed_op", Value: float64(n), Unit: "count", Base: msg})
	}
}
