package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// options is one invocation's settings. Everything a workload generates
// derives from seed; scale shrinks the corpora for the self-tests.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every corpus size (1 = the reference shapes).
	scale float64
	// dir holds the run's scratch files: saved corpora, WAL directories,
	// built binaries and span dumps. It lives inside the checkout.
	dir string
	// wedserve is the server binary serve-ingest starts as a child.
	wedserve string
	// setupReps is how many times set-up is repeated for setup_s.
	setupReps int
	// perturb corrupts one reference answer, so a self-test can show the
	// correctness gate fails the run.
	perturb bool
}

// workloadSpec names one workload and the function that runs it; the
// package doc gives each one's rationale.
type workloadSpec struct {
	name string
	run  func(ctx context.Context, o options, c *collector) error
}

var workloads = []workloadSpec{
	{"road-search", runRoadSearch},
	{"dense-search", runDenseSearch},
	{"road-topk", runRoadTopK},
	{"serve-ingest", runServeIngest},
}

func main() {
	o := options{scale: 1, setupReps: 3}
	flag.StringVar(&o.workload, "workload", "", "workload to run: road-search | dense-search | road-topk | serve-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory inside the checkout")
	flag.StringVar(&o.wedserve, "wedserve", ".bench_build/bin/wedserve", "wedserve binary for serve-ingest")
	flag.Parse()
	o.trace = *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(2)
	}
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report is the line before the result: the stamp, the workload's shape,
// and every end-to-end figure the workload measures, including those the
// result line cannot carry because they do not apply to every workload.
type report struct {
	Stamp   stamp             `json:"stamp"`
	Shape   map[string]any    `json:"shape"`
	Report  map[string]Metric `json:"report"`
	Spans   string            `json:"spans,omitempty"`
	Failure []string          `json:"failures,omitempty"`
}

type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

// run executes one workload and writes the report and result lines to w.
// An error means the run could not be carried out; wrong answers are a
// Result with Correct false.
func run(ctx context.Context, o options, w io.Writer) (*Result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == o.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	c := newCollector(o)
	if err := spec.run(ctx, o, c); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := e2eMetrics
	if o.trace {
		names = layerMetrics
		c.layer("error_rate", c.errorRate())
		if err := c.writeSpans(); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]Metric{},
	}
	src := c.e2e
	if o.trace {
		src = c.layers
	}
	var missing []string
	for _, m := range names {
		v, ok := src[m.name]
		if !ok {
			if o.trace {
				// A layer this workload does not exercise did no work.
				v = 0
			} else {
				missing = append(missing, m.name)
			}
		}
		res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: end-to-end metrics not measured: %v", o.workload, missing)
	}
	c.report("error_rate", "ratio", c.errorRate())
	rep := report{
		Stamp: stamp{
			Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
			GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Shape:   c.shape,
		Report:  c.extra,
		Spans:   c.spansPath,
		Failure: c.failures,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return res, nil
}

// gitRev names the source revision: the binary's VCS stamp when built in a
// git checkout, else "unknown" (benchmark checkouts are exported trees
// without .git).
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// collector gathers one run's counts, metrics and spans.
type collector struct {
	o         options
	began     time.Time
	attempted int64
	failed    int64
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
	extra     map[string]Metric
	shape     map[string]any
	spans     *spanLog
	spansPath string
}

func newCollector(o options) *collector {
	return &collector{
		o:      o,
		began:  time.Now(),
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		extra:  map[string]Metric{},
		shape:  map[string]any{},
		spans:  &spanLog{},
	}
}

// fail records one failed or wrong operation. Only the first few reasons
// are kept for the report.
func (c *collector) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// logf writes a progress line to standard error.
func (c *collector) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[perfbench %s %6.1fs] %s\n", c.o.workload, time.Since(c.began).Seconds(), fmt.Sprintf(format, args...))
}

func (c *collector) errorRate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// endToEnd sets an end-to-end metric of the untraced run and copies it to
// the report line.
func (c *collector) endToEnd(name string, v float64) {
	c.e2e[name] = v
	c.report(name, unitOf(name), v)
}

// layer sets a per-layer metric of the traced run.
func (c *collector) layer(name string, v float64) { c.layers[name] = v }

// report records a figure that goes only to the report line.
func (c *collector) report(name, unit string, v float64) {
	c.extra[name] = Metric{Value: v, Unit: unit}
}

func (c *collector) writeSpans() error {
	if len(c.spans.spans) == 0 {
		return nil
	}
	dir := c.o.dir + "/spans"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c.spansPath = fmt.Sprintf("%s/%s-%d.json", dir, c.o.workload, c.o.seed)
	return c.spans.write(c.spansPath)
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports in the
// untraced run (BENCHMARK.json end_to_end).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// layerMetrics are the per-layer metrics of the traced run
// (BENCHMARK.json per_layer). A workload that does not exercise a layer
// reports 0 for it.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"filter.plan_us", "us"},
		{"filter.group_us", "us"},
		{"filter.candidates", "count"},
		{"filter.predicted_candidates", "count"},
		{"filter.precision", "ratio"},
		{"filter.share", "ratio"},
		{"index.lookup_us", "us"},
		{"index.postings", "count"},
		{"index.bytes_per_traj", "B"},
		{"index.share", "ratio"},
		{"verify.ms", "ms"},
		{"verify.share", "ratio"},
		{"verify.ns_per_column", "ns"},
		{"verify.columns_visited", "count"},
		{"verify.stepdp_calls", "count"},
		{"verify.cells_computed", "count"},
		{"verify.trie_nodes", "count"},
		{"verify.cmr", "ratio"},
		{"verify.band_ratio", "ratio"},
		{"core.query_ms", "ms"},
		{"core.workers", "count"},
		{"core.stepdp_dup_ratio", "ratio"},
		{"core.topk_rounds", "count"},
		{"core.topk_verified", "count"},
		{"core.topk_reused", "count"},
		{"core.topk_last_round_share", "ratio"},
		{"core.topk_effective_tau", "wed"},
		{"core.topk_alloc_mb", "MB"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"mapmatch.ms", "ms"},
		{"mapmatch.accuracy", "ratio"},
		{"server.engine_ms", "ms"},
		{"server.handler_ms", "ms"},
		{"server.append_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.pool_waited", "count"},
		{"server.shed", "count"},
		{"server.snapshot_publishes", "count"},
		{"server.compactions", "count"},
		{"server.fold_ms", "ms"},
		{"server.generator_lag_ms", "ms"},
		{"wal.fsyncs", "count"},
		{"wal.bytes_per_append", "B"},
		{"wal.fsync_ms", "ms"},
		{"wal.checkpoints", "count"},
		{"trace.overhead_ms", "ms"},
		{"error_rate", "ratio"},
	}
	for _, m := range modelNames {
		defs = append(defs, metricDef{"verify.ms." + m, "ms"})
	}
	sort.SliceStable(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}()
