package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"subtraj/internal/analysis"
	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyOptions shrinks a workload to a seconds-long smoke run.
func tinyOptions(t *testing.T, name string, trace bool) options {
	return options{
		workload:  name,
		seed:      1,
		seconds:   1,
		trace:     trace,
		scale:     0.05,
		dir:       t.TempDir(),
		wedserve:  wedserveBinary(t),
		setupReps: 1,
	}
}

var wedserveBin string

// wedserveBinary builds cmd/wedserve once per test binary.
func wedserveBinary(t *testing.T) string {
	t.Helper()
	if wedserveBin != "" {
		return wedserveBin
	}
	dir, err := os.MkdirTemp("", "perfbench-wedserve-")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "wedserve")
	if out, err := exec.Command("go", "build", "-o", bin, "subtraj/cmd/wedserve").CombinedOutput(); err != nil {
		t.Fatalf("build wedserve: %v\n%s", err, out)
	}
	wedserveBin = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if wedserveBin != "" {
		os.RemoveAll(filepath.Dir(wedserveBin))
	}
	os.Exit(code)
}

// runTiny runs one tiny workload and returns its result line.
func runTiny(t *testing.T, o options) Result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last Result
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", o.workload, err)
	}
	if !reflect.DeepEqual(&last, res) {
		t.Fatalf("%s: printed result %+v differs from returned %+v", o.workload, last, *res)
	}
	return last
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at tiny scale,
// untraced and traced, and checks that each metric BENCHMARK.json names
// is emitted with its unit and that nothing failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, tinyOptions(t, w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			if trace && res.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s: error_rate %v", w.Name, res.Metrics["error_rate"].Value)
			}
		}
	}
}

// TestPerturbedReferenceFails shows the correctness gate is live: with one
// reference answer corrupted, every timed answer to that query mismatches
// and the run is not correct.
func TestPerturbedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	o := tinyOptions(t, "dense-search", false)
	o.perturb = true
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed reference passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestSearchChecksFail shows the PlainSW and top-k gates are live: each
// passes the engine's own answer and fails it once corrupted.
func TestSearchChecksFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a road city")
	}
	city, err := buildRoadCity(roadConfig(options{seed: 3, scale: 0.02}), []string{"EDR"})
	if err != nil {
		t.Fatal(err)
	}
	eng := city.engines["EDR"]
	q, err := workload.SampleQuery(eng.Dataset(), 20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sq := searchQuery{model: "EDR", q: q, tau: tauRatio * core.SumFilterCost(eng.Costs(), q)}
	res, _, err := eng.SearchQuery(sq.coreQuery())
	if err != nil || len(res) == 0 {
		t.Fatalf("search: %d matches, %v", len(res), err)
	}
	if msg := checkPlainSW(eng, sq, res, 1); msg != "" {
		t.Fatalf("PlainSW gate fails the engine's answer: %s", msg)
	}
	wrongWED := slices.Clone(res)
	wrongWED[0].WED++
	for _, bad := range [][]traj.Match{wrongWED, res[1:]} {
		if checkPlainSW(eng, sq, bad, 1) == "" {
			t.Errorf("PlainSW gate passes a corrupted answer of %d matches", len(bad))
		}
	}

	top, st, err := eng.SearchTopKStats(q, topkK, core.TopKOptions{})
	if err != nil || len(top) == 0 {
		t.Fatalf("top-k: %d answers, %v", len(top), err)
	}
	if msg := checkTopK(eng, q, topkK, top, st.EffectiveTau); msg != "" {
		t.Fatalf("top-k gate fails the engine's answer: %s", msg)
	}
	wrongTop := slices.Clone(top)
	wrongTop[len(wrongTop)-1].WED++
	for _, bad := range [][]traj.Match{wrongTop, top[:len(top)-1]} {
		if checkTopK(eng, q, topkK, bad, st.EffectiveTau) == "" {
			t.Errorf("top-k gate passes a corrupted answer of %d entries", len(bad))
		}
	}
}

// TestCheckServedFails shows serve-ingest's post-run check is live: it
// passes an in-process server's answers and fails a run where one
// answer of each kind (search, temporal, GPS) comes back corrupted.
func TestCheckServedFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a server")
	}
	dir := t.TempDir()
	o := options{workload: "serve-ingest", seed: 1, seconds: 1, scale: 0.02, dir: dir}
	in, err := makeServeInputs(o, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, eng, _, err := inProcessServer(in, filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Durable().Close()
	ctx := context.Background()
	tgt := handlerTarget(srv)
	var appends []outcome
	for _, a := range in.appends[:min(20, len(in.appends))] {
		status, body, err := tgt(ctx, http.MethodPost, "/v1/append", a.body)
		appends = append(appends, outcome{status: status, body: body, err: err})
	}
	check := func(tgt target) *collector {
		c := newCollector(o)
		if err := checkServed(ctx, c, in, appends, tgt); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if c := check(tgt); c.failed != 0 || c.attempted != int64(len(in.checks)) {
		t.Fatalf("honest server: %d of %d checks failed: %v", c.failed, c.attempted, c.failures)
	}
	for k, r := range in.checks[:3] {
		corrupt := func(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
			status, resp, err := tgt(ctx, method, path, body)
			if err != nil || !bytes.Equal(body, r.body) {
				return status, resp, err
			}
			var m map[string]any
			if err := json.Unmarshal(resp, &m); err != nil {
				return status, resp, err
			}
			if matches, _ := m["matches"].([]any); len(matches) > 0 {
				m["matches"] = matches[1:]
			} else {
				m["matches"] = []any{map[string]any{"id": 0, "s": 0, "t": 0, "wed": 0}}
			}
			resp, err = json.Marshal(m)
			return status, resp, err
		}
		if c := check(corrupt); c.failed != 1 {
			t.Errorf("check %d (%s): a corrupted answer gave %d failures, want 1", k, r.kind, c.failed)
		}
	}
}

// TestSeedDeterminesInputs checks that a seed reproduces identical inputs
// and another seed changes them, for every input generator.
func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed int64) []uint64 {
		o := options{seed: seed, seconds: 1, scale: 0.02, dir: t.TempDir()}
		var sums []uint64
		dense, err := buildDense(o)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, hashJSON(t, dense.eng.Dataset().Trajs[:100]))
		if err := dense.release(); err != nil {
			t.Fatal(err)
		}
		city, err := buildRoadCity(roadConfig(o), modelNames)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := roadSearchQueries(city, seed)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, hashJSON(t, city.w.Data.Trajs[:100]), hashJSON(t, fmtQueries(qs)))
		in, err := makeServeInputs(o, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var bodies [][]byte
		for _, r := range in.ref {
			bodies = append(bodies, r.body)
		}
		for _, a := range in.appends {
			bodies = append(bodies, a.body)
		}
		var checks [][]byte
		for _, r := range in.checks {
			checks = append(checks, r.body)
		}
		sums = append(sums, hashJSON(t, bodies), hashJSON(t, checks))
		return sums
	}
	a, again, other := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatalf("seed 7 twice gave different inputs: %v vs %v", a, again)
	}
	for i := range a {
		if a[i] == other[i] {
			t.Errorf("input %d is the same under seeds 7 and 8", i)
		}
	}
}

func fmtQueries(qs []searchQuery) []any {
	var out []any
	for _, q := range qs {
		out = append(out, []any{q.model, q.q, q.tau, q.temporal, q.lo, q.hi})
	}
	return out
}

func hashJSON(t *testing.T, v any) uint64 {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// TestLintClean runs the repository's invariant analyzers (cmd/subtrajlint)
// over this module: pooled Get/Put pairing, map-order independence and
// the rest hold here as in the main module.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	fset, pkgs, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(fset, pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
