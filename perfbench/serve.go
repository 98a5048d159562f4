package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subtraj"
	"subtraj/internal/core"
	"subtraj/internal/mapmatch"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

const (
	serveRefRate    = 100.0 // reads/s of the reference phase
	serveAppendRate = 100.0 // appends/s beside the open-loop phases
	serveP99LimitMS = 150.0 // read p99 limit behind serve_max_rps
	serveGPSSigma   = 10.0  // metres of noise on GPS-trace reads
	serveChecks     = 12    // post-run reads compared with a library engine
	// wedserve's -gps-sigma and -gps-beta defaults, which the in-process
	// server and the post-run check's matcher repeat.
	serveMatchSigma = 20.0
	serveMatchBeta  = 50.0
	// The fold and checkpoint thresholds are low enough that several
	// folds and at least one checkpoint land in a 12-second run.
	serveCompactAppends  = 256
	serveCheckpointBytes = 256 << 10
)

// serveLadder are the read rates above the reference rate that
// serve_max_rps tries, one step each.
var serveLadder = []float64{150, 200, 300}

// serveRead is one scheduled read. body is the request sent; the other
// fields keep what the traced run needs to call the layers beside it.
type serveRead struct {
	due   time.Duration
	path  string
	body  []byte
	kind  string // "search", "temporal" or "gps"
	q     []traj.Symbol
	trace []subtraj.Point
	lo    float64
	hi    float64
}

// serveAppend is one scheduled append.
type serveAppend struct {
	due  time.Duration
	t    traj.Trajectory
	body []byte
}

// serveInputs is everything serve-ingest sends, derived from the seed.
type serveInputs struct {
	city     *workload.Workload // the base corpus the server loads
	cityPath string
	ref      []serveRead   // reference phase at serveRefRate
	ladder   [][]serveRead // one step per serveLadder rate
	closed   []serveRead   // pool for the closed-loop phase
	appends  []serveAppend
	checks   []serveRead // post-run reads, a third of each kind
	refDur   time.Duration
	stepDur  time.Duration
	closeDur time.Duration
}

// makeServeInputs generates the city (base plus an append pool drawn from
// the same generator, so appends drive the same roads), saves the base
// with Workload.Save, and draws every phase's schedule.
func makeServeInputs(o options, dir string) (*serveInputs, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	in := &serveInputs{
		refDur:   total * 64 / 100,
		stepDur:  total * 4 / 100,
		closeDur: total * 24 / 100,
	}
	cfg := roadConfig(o)
	base := cfg.NumTrajectories
	// Appends run beside the open-loop phases. The closed-loop phase runs
	// after the stream has ended, so no fold lands in its short window and
	// its throughput measures reads alone.
	open := in.refDur + time.Duration(len(serveLadder))*in.stepDur
	nAppends := int(serveAppendRate * open.Seconds())
	cfg.NumTrajectories = base + nAppends
	full := workload.Generate(cfg)
	extra := full.Data.Trajs[base:]
	full.Data = full.Data.Slice(base)
	in.city = full
	in.cityPath = filepath.Join(dir, "city.gob")
	f, err := os.Create(in.cityPath)
	if err != nil {
		return nil, err
	}
	if err := full.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(subSeed(o.seed, streamSchedule)))
	if in.ref, err = makeReads(full, serveRefRate, in.refDur, rng); err != nil {
		return nil, err
	}
	for _, r := range serveLadder {
		step, err := makeReads(full, r, in.stepDur, rng)
		if err != nil {
			return nil, err
		}
		in.ladder = append(in.ladder, step)
	}
	// The closed-loop pool holds more distinct reads than the phase can
	// send, so its throughput averages over many queries.
	if in.closed, err = makeReads(full, 1000, in.closeDur, rng); err != nil {
		return nil, err
	}
	spacing := time.Duration(float64(time.Second) / serveAppendRate)
	for i, t := range extra {
		body, err := json.Marshal(map[string]any{"path": t.Path, "times": t.Times})
		if err != nil {
			return nil, err
		}
		in.appends = append(in.appends, serveAppend{due: time.Duration(i) * spacing, t: t, body: body})
	}
	crng := rand.New(rand.NewSource(subSeed(o.seed, streamAppends)))
	kinds := []string{"search", "temporal", "gps"}
	for i := 0; i < serveChecks; i++ {
		// Half the checks are subpaths of appended trajectories, so a lost
		// or misplaced append shows.
		src := full.Data
		if i%2 == 1 && len(extra) > 0 {
			src = &traj.Dataset{Rep: traj.VertexRep, Trajs: extra}
		}
		q, err := workload.SampleQuery(src, 20, crng)
		if err != nil {
			return nil, err
		}
		r, err := newRead(full, kinds[i%len(kinds)], q, crng)
		if err != nil {
			return nil, err
		}
		in.checks = append(in.checks, r)
	}
	return in, nil
}

// makeReads draws an open-loop schedule at rate reads/s over dur: Poisson
// arrivals; 80% symbol searches, 10% departure-window searches, 10%
// searches by a raw GPS trace (σ = 10 m) that the server map-matches.
func makeReads(w *workload.Workload, rate float64, dur time.Duration, rng *rand.Rand) ([]serveRead, error) {
	var out []serveRead
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out, nil
		}
		q, err := workload.SampleQuery(w.Data, roadQLen, rng)
		if err != nil {
			return nil, err
		}
		kind := "search"
		switch u := rng.Float64(); {
		case u >= 0.9:
			kind = "gps"
		case u >= 0.8:
			kind = "temporal"
		}
		r, err := newRead(w, kind, q, rng)
		if err != nil {
			return nil, err
		}
		r.due = due
		out = append(out, r)
	}
}

// newRead builds one read of the given kind for the subpath q: a search
// by q's symbols, a departure-window search by them (a 6-hour window
// drawn from rng), or a search by a GPS trace along q (σ = 10 m noise
// drawn from rng) that the server map-matches.
func newRead(w *workload.Workload, kind string, q []traj.Symbol, rng *rand.Rand) (serveRead, error) {
	r := serveRead{kind: kind, path: "/v1/search", q: q}
	body := map[string]any{"tau_ratio": tauRatio}
	switch kind {
	case "search":
		body["q"] = q
	case "temporal":
		r.path = "/v1/temporal"
		r.lo = rng.Float64() * (horizonSec - windowSec)
		r.hi = r.lo + windowSec
		body["q"], body["lo"], body["hi"], body["mode"] = q, r.lo, r.hi, "departure"
	case "gps":
		tr := workload.GenerateTrace(w.Graph, q, workload.GPSConfig{NoiseSigma: serveGPSSigma}, rng)
		r.trace = tr.Points
		pts := make([][2]float64, len(tr.Points))
		for i, p := range tr.Points {
			pts[i] = [2]float64{p.X, p.Y}
		}
		body["trace"] = pts
	default:
		return r, fmt.Errorf("unknown read kind %q", kind)
	}
	var err error
	r.body, err = json.Marshal(body)
	return r, err
}

// target sends one request to the server under test and returns the
// status and body.
type target func(ctx context.Context, method, path string, body []byte) (int, []byte, error)

// httpTarget talks to the wedserve child over loopback. conns bounds the
// client's connections.
func httpTarget(addr string, conns int) target {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	return func(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// outcome is one sent request's timeline, as offsets from its phase's
// start.
type outcome struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// latencyMS is the request's latency from when it was due: a stall makes
// every later request late too, and that wait counts.
func (o outcome) latencyMS() float64 { return ms(o.done - o.due) }

// openLoop sends n requests on schedule regardless of how earlier ones
// fare, at most conns at a time (requests beyond that wait for a
// connection, and the wait counts in their latency). send(i) performs
// request i. It returns when every request has finished, with the time
// the schedule started.
func openLoop(ctx context.Context, n, conns int, due func(i int) time.Duration, send func(i int) (int, []byte, error)) ([]outcome, time.Time) {
	out := make([]outcome, n)
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(start.Add(d)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			out = out[:i]
			break
		}
		out[i].due, out[i].sent = d, time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			status, body, err := send(i)
			<-sem
			out[i].done, out[i].status, out[i].body, out[i].err = time.Since(start), status, body, err
		}()
	}
	wg.Wait()
	return out, start
}

// stepVerdict reports whether a rate step met the limit: no failures,
// read p99 within serveP99LimitMS, and no growing backlog — at the step's
// end no more than max(conns, 100 ms of arrivals) requests outstanding.
func stepVerdict(outs []outcome, rate float64, end time.Duration, conns int) (p99 float64, pass bool) {
	var lat []float64
	failed, backlog := 0, 0
	for _, o := range outs {
		lat = append(lat, o.latencyMS())
		if !o.ok() {
			failed++
		}
		if o.due <= end && o.done > end {
			backlog++
		}
	}
	p99 = quantile(lat, 0.99)
	limit := max(float64(conns), rate*0.1)
	return p99, failed == 0 && p99 <= serveP99LimitMS && float64(backlog) <= limit
}

// child is the wedserve process under test.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startChild launches wedserve over the saved city and waits for /healthz.
func startChild(ctx context.Context, bin, city, walDir string, log io.Writer) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr, "-load", city, "-model", "EDR",
		"-wal-dir", walDir, "-wal-sync", "interval",
		"-compact-appends", strconv.Itoa(serveCompactAppends),
		"-checkpoint-bytes", strconv.Itoa(serveCheckpointBytes))
	cmd.Stdout, cmd.Stderr = log, log
	setChildAttrs(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wedserve: %w", err)
	}
	ch := &child{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ch, nil
			}
		}
		select {
		case <-ch.done:
			return nil, fmt.Errorf("wedserve exited before ready: %v", ch.err)
		case <-ctx.Done():
			ch.stop()
			return nil, ctx.Err()
		// A short poll keeps setup_s's rounding well below its spread.
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			ch.stop()
			return nil, errors.New("wedserve not ready after 120s")
		}
	}
}

// stop kills the child and reaps it.
func (ch *child) stop() {
	select {
	case <-ch.done:
		return
	default:
	}
	ch.cmd.Process.Kill()
	<-ch.done
}

func runServeIngest(ctx context.Context, o options, c *collector) error {
	dir, err := os.MkdirTemp(o.dir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := makeServeInputs(o, dir)
	if err != nil {
		return err
	}
	conns := runtime.NumCPU()
	c.shape["trajectories"] = in.city.Data.Len()
	c.shape["postings"] = in.city.Data.TotalSymbols()
	c.shape["query_len"] = roadQLen
	c.shape["models"] = []string{"EDR"}
	c.shape["tau_ratio"] = tauRatio
	c.shape["read_mix"] = "80% search, 10% departure-window temporal, 10% GPS trace (σ=10 m)"
	c.shape["reference_rps"] = serveRefRate
	c.shape["ladder_rps"] = serveLadder
	c.shape["append_rps"] = serveAppendRate
	c.shape["connections"] = conns
	c.shape["p99_limit_ms"] = serveP99LimitMS
	c.shape["compact_appends"] = serveCompactAppends
	c.shape["checkpoint_bytes"] = serveCheckpointBytes
	c.shape["wal_sync"] = "interval"
	c.logf("inputs ready: %d reference reads, %d appends", len(in.ref), len(in.appends))
	if o.trace {
		return traceServe(ctx, c, in, dir, conns)
	}

	logPath := filepath.Join(dir, "wedserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	walDir := filepath.Join(dir, "wal")
	ch, setup, err := timeSetup(ctx, o.setupReps, func() (*child, error) {
		ch, err := startChild(ctx, o.wedserve, in.cityPath, walDir, logf)
		if err != nil {
			return nil, fmt.Errorf("%w (log: %s)", err, tail(logPath))
		}
		return ch, nil
	}, func(ch *child) error {
		ch.stop()
		return os.RemoveAll(walDir)
	})
	if err != nil {
		return err
	}
	defer ch.stop()
	c.endToEnd("setup_s", setup)
	c.logf("set-up %.2fs (median of %d)", setup, o.setupReps)
	tgt := httpTarget(ch.addr, conns)
	appendTgt := httpTarget(ch.addr, 1)
	if err := driveServe(ctx, c, in, tgt, appendTgt, conns); err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(ch.cmd.Process.Pid))
	if err != nil {
		return err
	}
	c.endToEnd("peak_rss_mb", rss)
	c.logf("done")
	return nil
}

// startAppends sends the append stream on its own connection, on
// schedule; the returned function waits for it.
func startAppends(ctx context.Context, in *serveInputs, send func(i int) (int, []byte, error)) func() []outcome {
	var appends []outcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		appends, _ = openLoop(ctx, len(in.appends), 1, func(i int) time.Duration { return in.appends[i].due }, send)
	}()
	return func() []outcome {
		<-done
		return appends
	}
}

// countOutcomes adds a phase's requests to the attempted and failed
// counts; a shed (503) or timed-out (504) request is a failure like any
// other non-200.
func countOutcomes(c *collector, what string, outs []outcome) {
	for i, o := range outs {
		c.attempted++
		if !o.ok() {
			c.fail("%s %d: status %d: %v %s", what, i, o.status, o.err, truncate(o.body))
		}
	}
}

// finishServe reports the append stream's latency, reads the server's
// counters and runs the post-run equality check.
func finishServe(ctx context.Context, c *collector, in *serveInputs, appends []outcome, tgt target) error {
	countOutcomes(c, "append", appends)
	var alat []float64
	for _, o := range appends {
		alat = append(alat, o.latencyMS())
	}
	c.report("append_p99_ms", "ms", quantile(alat, 0.99))
	c.report("appends", "count", float64(len(appends)))
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := serveStats(ctx, c, tgt); err != nil {
		return err
	}
	return checkServed(ctx, c, in, appends, tgt)
}

// driveServe runs the untraced phases against the child: the reference
// phase and the rate ladder with the append stream beside them, then the
// closed-loop phase, then the post-run check.
func driveServe(ctx context.Context, c *collector, in *serveInputs, tgt, appendTgt target, conns int) error {
	wait := startAppends(ctx, in, func(i int) (int, []byte, error) {
		return appendTgt(ctx, http.MethodPost, "/v1/append", in.appends[i].body)
	})
	phase := func(reads []serveRead) []outcome {
		outs, _ := openLoop(ctx, len(reads), conns, func(i int) time.Duration { return reads[i].due },
			func(i int) (int, []byte, error) { return tgt(ctx, http.MethodPost, reads[i].path, reads[i].body) })
		countOutcomes(c, "read", outs)
		return outs
	}
	ref := phase(in.ref)
	var lat, lag []float64
	for _, o := range ref {
		lat = append(lat, o.latencyMS())
		lag = append(lag, ms(o.sent-o.due))
	}
	c.recordLatency(lat)
	p99, pass := stepVerdict(ref, serveRefRate, in.refDur, conns)
	c.report(fmt.Sprintf("rps%.0f_p99_ms", serveRefRate), "ms", p99)
	maxRPS := 0.0
	if pass {
		maxRPS = serveRefRate
	}
	for k, step := range in.ladder {
		outs := phase(step)
		p99, pass := stepVerdict(outs, serveLadder[k], in.stepDur, conns)
		c.report(fmt.Sprintf("rps%.0f_p99_ms", serveLadder[k]), "ms", p99)
		if pass {
			maxRPS = serveLadder[k]
		}
		for _, o := range outs {
			lag = append(lag, ms(o.sent-o.due))
		}
	}
	c.report("serve_max_rps", "1/s", maxRPS)
	c.report("generator_lag_p99_ms", "ms", quantile(lag, 0.99))
	appends := wait()
	c.endToEnd("queries_per_s", closedLoopServe(ctx, c, in.closed, conns, in.closeDur, tgt))
	return finishServe(ctx, c, in, appends, tgt)
}

// closedLoopServe runs conns clients that each send their next read as
// soon as the previous one answers, for dur, and returns the reads
// completed per second.
func closedLoopServe(ctx context.Context, c *collector, pool []serveRead, conns int, dur time.Duration, tgt target) float64 {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var done int
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := pool[int(next.Add(1)-1)%len(pool)]
				status, body, err := tgt(ctx, http.MethodPost, r.path, r.body)
				mu.Lock()
				c.attempted++
				if err != nil || status != http.StatusOK {
					c.fail("closed-loop read: status %d: %v %s", status, err, truncate(body))
				} else {
					done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds()
}

// statsSnapshot is the part of /v1/stats the benchmark reads.
type statsSnapshot struct {
	Ingest struct {
		Compactions       int64   `json:"compactions"`
		SnapshotPublishes int64   `json:"snapshot_publishes"`
		LastCompactionMS  float64 `json:"last_compaction_ms"`
	} `json:"ingest"`
	Cache struct {
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
	Pool struct {
		Waited int64 `json:"waited"`
		Shed   int64 `json:"shed"`
	} `json:"pool"`
	Durability struct {
		WALBytes    int64 `json:"wal_bytes"`
		WALRecords  int64 `json:"wal_records"`
		WALSyncs    int64 `json:"wal_syncs"`
		Checkpoints int64 `json:"checkpoints"`
	} `json:"durability"`
}

// serveStats reads the server's own counters (/v1/stats and the WAL
// fsync histogram on /metrics) into the report and the per-layer metrics.
func serveStats(ctx context.Context, c *collector, tgt target) error {
	status, body, err := tgt(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	var st statsSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("GET /v1/stats: %w", err)
	}
	c.report("compactions", "count", float64(st.Ingest.Compactions))
	c.report("checkpoints", "count", float64(st.Durability.Checkpoints))
	c.layer("server.cache_hit_ratio", st.Cache.HitRatio)
	c.layer("server.pool_waited", float64(st.Pool.Waited))
	c.layer("server.shed", float64(st.Pool.Shed))
	c.layer("server.snapshot_publishes", float64(st.Ingest.SnapshotPublishes))
	c.layer("server.compactions", float64(st.Ingest.Compactions))
	c.layer("server.fold_ms", st.Ingest.LastCompactionMS)
	c.layer("wal.fsyncs", float64(st.Durability.WALSyncs))
	c.layer("wal.checkpoints", float64(st.Durability.Checkpoints))
	c.layer("wal.bytes_per_append", ratio(float64(st.Durability.WALBytes), float64(st.Durability.WALRecords)))
	status, body, err = tgt(ctx, http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	sum, count := promValue(body, "subtraj_wal_fsync_seconds_sum"), promValue(body, "subtraj_wal_fsync_seconds_count")
	c.layer("wal.fsync_ms", ratio(sum*1e3, count))
	return nil
}

// promValue returns an unlabelled sample's value from a Prometheus text
// exposition (0 when absent).
func promValue(exp []byte, name string) float64 {
	for _, line := range strings.Split(string(exp), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// checkServed sends the post-run reads (searches, departure-window
// searches and GPS-trace searches) and compares the server's answers with
// a library engine built over the base corpus plus every acknowledged
// append, at the IDs the server assigned; for a GPS read the symbols the
// server resolved must also equal the library matcher's path. Any
// difference fails the run.
func checkServed(ctx context.Context, c *collector, in *serveInputs, appends []outcome, tgt target) error {
	ds := &traj.Dataset{Rep: traj.VertexRep, Trajs: append([]traj.Trajectory(nil), in.city.Data.Trajs...)}
	base := int32(ds.Len())
	placed := map[int32]traj.Trajectory{}
	for i, o := range appends {
		if !o.ok() {
			continue
		}
		var resp struct {
			ID int32 `json:"id"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return fmt.Errorf("append %d response: %w", i, err)
		}
		placed[resp.ID] = in.appends[i].t
	}
	for id := base; id < base+int32(len(placed)); id++ {
		t, ok := placed[id]
		if !ok {
			c.attempted++
			c.fail("acknowledged appends do not cover IDs %d..%d: %d missing", base, base+int32(len(placed))-1, id)
			return nil
		}
		ds.Add(t)
	}
	net := subtraj.NewNetwork(in.city.Graph)
	eng := core.NewEngine(ds, net.EDR(100))
	matcher := mapmatch.New(in.city.Graph, mapmatch.Config{Sigma: serveMatchSigma, Beta: serveMatchBeta})
	for k, r := range in.checks {
		c.attempted++
		status, resp, err := tgt(ctx, http.MethodPost, r.path, r.body)
		if err != nil || status != http.StatusOK {
			c.fail("check %d (%s): status %d: %v %s", k, r.kind, status, err, truncate(resp))
			continue
		}
		var got struct {
			Matches []struct {
				ID  int32   `json:"id"`
				S   int32   `json:"s"`
				T   int32   `json:"t"`
				WED float64 `json:"wed"`
			} `json:"matches"`
			Tau       float64       `json:"tau"`
			ResolvedQ []traj.Symbol `json:"resolved_q"`
		}
		if err := json.Unmarshal(resp, &got); err != nil {
			c.fail("check %d (%s): %v", k, r.kind, err)
			continue
		}
		q := r.q
		if r.kind == "gps" {
			res, err := matcher.MatchTrace(r.trace)
			if err != nil {
				c.fail("check %d (gps): the library matcher fails where the server answered: %v", k, err)
				continue
			}
			path, _ := res.Path()
			if !slices.Equal(got.ResolvedQ, path) {
				c.fail("check %d (gps): server resolved the trace to %d symbols, the library matcher to %d", k, len(got.ResolvedQ), len(path))
				continue
			}
			q = path
		}
		qr := core.Query{Q: q, Tau: tauRatio * core.SumFilterCost(eng.Costs(), q)}
		if r.kind == "temporal" {
			qr.Temporal.Mode = core.TemporalDeparture
			qr.Temporal.Lo, qr.Temporal.Hi = r.lo, r.hi
		}
		if got.Tau != qr.Tau {
			c.fail("check %d (%s): server resolved τ = %g, the library %g", k, r.kind, got.Tau, qr.Tau)
			continue
		}
		want, _, err := eng.SearchQuery(qr)
		if err != nil {
			return fmt.Errorf("check %d: library engine: %w", k, err)
		}
		same := len(got.Matches) == len(want)
		for i := 0; same && i < len(want); i++ {
			g := got.Matches[i]
			same = g.ID == want[i].ID && g.S == want[i].S && g.T == want[i].T && g.WED == want[i].WED
		}
		if !same {
			c.fail("check %d (%s): server answer (%d matches) differs from the library engine over base + acknowledged appends (%d)", k, r.kind, len(got.Matches), len(want))
		}
	}
	c.shape["post_run_checks"] = len(in.checks)
	return nil
}

func truncate(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	const n = 2000
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
