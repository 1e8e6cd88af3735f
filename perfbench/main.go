// Command perfbench is SensorSafe's end-to-end benchmark. It starts the
// real store and broker handlers on loopback listeners (segstore on disk,
// default admission control, request logging on), drives them through
// the production clients with inputs generated from internal/sensors
// scenarios, checks every output against an oracle, and prints each
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a run that records
// spans around every layer call.
//
// Usage (from the repository root; see perfbench/README.md):
//
//	bash perfbench/run.sh --workload archive-query --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	// Rule time conditions and the oracle both read weekdays in UTC.
	time.Local = time.UTC
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs (3, or 1 when smoke); setup_s
	// is their median and the last deployment is the one measured.
	setups int
	// smoke shrinks data and set-up for the benchmark's own tests.
	smoke bool
	// workdir holds this run's stores, request log and trace output.
	workdir string
	// clients is the number of concurrent client connections (nproc).
	clients int
}

// workload is one traffic mix against a deployment.
type workload interface {
	// setup builds a fresh deployment and brings it to steady state.
	setup(ctx context.Context) error
	// run drives the timed phase for d; tr is nil when untraced.
	run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// verify re-checks storage state and the stored data after the timed
	// phase, reporting the admission state the stores ended in.
	verify(ctx context.Context, r *report) error
	// close stops the deployment and removes its files.
	close()
}

var workloads = map[string]func(cfg config) (workload, error){
	"archive-query": newArchive,
	"phone-ingest":  newIngest,
	"live-cohort":   newCohort,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "archive-query, phone-ingest or live-cohort")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "small inputs for a quick self-check")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for stores, logs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.clients = runtime.NumCPU()
	cfg.setups = 3
	if cfg.smoke {
		cfg.setups = 1
	}
	mk, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", cfg.workload)
		return 2
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	restore, err := redirectRequestLog(filepath.Join(dir, "requests.log"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() {
		// A panic's trace must reach the real standard error.
		if p := recover(); p != nil {
			restore()
			panic(p)
		}
	}()
	cfg.workdir = dir
	res, rep, err := execute(cfg, mk)
	restore()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, m := range rep.list {
		line := fmt.Sprintf("metric %-34s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Pct > 0 {
			line += fmt.Sprintf(" p%.2f", m.Pct)
		}
		if m.Base != "" {
			line += " base=" + m.Base
		}
		fmt.Fprintln(stdout, line)
	}
	for _, c := range rep.checks {
		fmt.Fprintln(stdout, "check FAILED:", c)
		fmt.Fprintf(stderr, "perfbench: %s: check FAILED: %s\n", cfg.workload, c)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// execute runs set-up, the timed phase and the checks, and assembles the
// result. Output-check failures make the result incorrect; errors that
// leave nothing to report are returned.
func execute(cfg config, mk func(config) (workload, error)) (*result, *report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	w, err := mk(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var ph *phase
	if !cfg.trace {
		heap := watchHeap(5 * time.Millisecond)
		ph, err = w.run(ctx, d, nil)
		peak := heap.end()
		if err != nil {
			return nil, nil, err
		}
		rep.add(metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)})
		rep.set("peak_heap_mb", peak, "MB")
		ph.endToEnd(rep)
	} else {
		// The traced half follows an untraced half on the same deployment;
		// their primary-op medians give the tracing overhead.
		plain, err := w.run(ctx, d/2, nil)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		if ph, err = w.run(ctx, d/2, tr); err != nil {
			return nil, nil, err
		}
		ph.merge(plain)
		layerReport(ph.layerIn, rep)
		base := median(plain.primary.sorted())
		if base > 0 {
			rep.add(metric{Name: "trace.overhead_frac", Value: median(ph.primary.sorted())/base - 1, Unit: "ratio", Base: "untraced " + ph.primaryName + " p50"})
		}
		if err := tr.writeSpans(filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, nil, err
		}
	}
	if err := w.verify(ctx, rep); err != nil {
		ph.fail(err)
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation was attempted")
	}
	rep.add(metric{Name: "failed_frac", Value: float64(ph.failed) / float64(ph.attempted), Unit: "ratio", Samples: int(ph.attempted), Base: "ops attempted"})
	res.Correct = len(ph.checkErrs) == 0
	rep.checks = ph.checkErrs
	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	for _, n := range names {
		m, ok := rep.get(n)
		if !ok {
			m = metric{Name: n, Unit: unitOf(n)}
		}
		res.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	return res, rep, nil
}
