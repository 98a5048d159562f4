package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"subtraj"
	"subtraj/internal/core"
	"subtraj/internal/experiments"
	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// modelNames are the six WED instances, in the paper's order.
var modelNames = experiments.ModelNames

// Input streams: each kind of input draws from its own seed derived from
// the run's seed, so adding draws to one stream never shifts another.
const (
	streamCity uint64 = iota + 1
	streamQueries
	streamDense
	streamTraces
	streamSchedule
	streamAppends
	streamGate
)

// subSeed derives stream's seed from the run's seed (splitmix64).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

const (
	tauRatio = 0.1
	// roadScale is the SanFran-like city's scale: 13,800 trajectories.
	roadScale  = 0.3
	roadQLen   = 60
	roadPool   = 600
	windowSec  = 6 * 3600
	horizonSec = 86400
	denseTrajs = 200000
	denseAlpha = 1000
	denseQLen  = 8
	densePool  = 128
	denseGateN = 2
)

// searchQuery is one threshold read of road-search or dense-search.
type searchQuery struct {
	model    string
	q        []traj.Symbol
	tau      float64
	temporal bool // departure window [lo, hi]
	lo, hi   float64
}

// coreQuery is the library call the untraced run makes: engine defaults,
// so Parallelism stays zero.
func (sq searchQuery) coreQuery() core.Query {
	qr := core.Query{Q: sq.q, Tau: sq.tau}
	if sq.temporal {
		qr.Temporal.Mode = core.TemporalDeparture
		qr.Temporal.Lo, qr.Temporal.Hi = sq.lo, sq.hi
	}
	return qr
}

// roadCity is the SanFran-like corpus with one default engine per cost
// model.
type roadCity struct {
	w       *workload.Workload
	engines map[string]*core.Engine
}

func roadConfig(o options) workload.Config {
	cfg := workload.SanFranLike().Scale(roadScale * o.scale)
	cfg.Seed = subSeed(o.seed, streamCity)
	return cfg
}

// buildRoadCity generates the city and builds a NewEngine-default engine
// (pointer backend) per model, with the departure order already built so
// no query pays for it.
func buildRoadCity(cfg workload.Config, models []string) (*roadCity, error) {
	w := workload.Generate(cfg)
	net := subtraj.NewNetwork(w.Graph)
	city := &roadCity{w: w, engines: map[string]*core.Engine{}}
	var edges *traj.Dataset
	for _, m := range models {
		costs, data, err := modelCosts(net, w, m, &edges)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(data, costs)
		eng.PrepareTemporal()
		city.engines[m] = eng
	}
	return city, nil
}

// modelCosts builds the named cost model with wedserve's parameters (the
// paper's §6.1 settings) and returns the dataset it searches: edge
// representation for SURS, vertices otherwise.
func modelCosts(net *subtraj.Network, w *workload.Workload, name string, edges **traj.Dataset) (wed.FilterCosts, *traj.Dataset, error) {
	switch name {
	case "Lev":
		return net.Lev(), w.Data, nil
	case "EDR":
		return net.EDR(100), w.Data, nil
	case "ERP":
		return net.ERP(net.DefaultERPEta()), w.Data, nil
	case "NetEDR":
		return net.NetEDR(w.Graph.MedianEdgeWeight()), w.Data, nil
	case "NetERP":
		return net.NetERP(2e6, w.Graph.MedianEdgeWeight()), w.Data, nil
	case "SURS":
		if *edges == nil {
			ed, err := w.Data.ToEdgeRep(w.Graph)
			if err != nil {
				return nil, nil, err
			}
			*edges = ed
		}
		return net.SURS(), *edges, nil
	}
	return nil, nil, fmt.Errorf("unknown cost model %q", name)
}

// roadSearchQueries draws the road-search pool: |Q| = 60 subpaths of the
// model's own dataset, rotating through the six models, every fourth a
// departure-window query.
func roadSearchQueries(city *roadCity, seed int64) ([]searchQuery, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamQueries)))
	out := make([]searchQuery, 0, roadPool)
	for i := 0; i < roadPool; i++ {
		m := modelNames[i%len(modelNames)]
		eng := city.engines[m]
		q, err := workload.SampleQuery(eng.Dataset(), roadQLen, rng)
		if err != nil {
			return nil, err
		}
		sq := searchQuery{model: m, q: q, tau: tauRatio * core.SumFilterCost(eng.Costs(), q)}
		if i%4 == 3 {
			sq.temporal = true
			sq.lo = rng.Float64() * (horizonSec - windowSec)
			sq.hi = sq.lo + windowSec
		}
		out = append(out, sq)
	}
	return out, nil
}

func runRoadSearch(ctx context.Context, o options, c *collector) error {
	cfg := roadConfig(o)
	city, setup, err := timeSetup(ctx, o.setupReps, func() (*roadCity, error) { return buildRoadCity(cfg, modelNames) }, nil)
	if err != nil {
		return err
	}
	c.endToEnd("setup_s", setup)
	c.logf("set-up %.2fs", setup)
	queries, err := roadSearchQueries(city, o.seed)
	if err != nil {
		return err
	}
	// PlainSW checks the first plain (non-temporal) query of each model.
	var gate []int
	seen := map[string]bool{}
	for i, sq := range queries {
		if !sq.temporal && !seen[sq.model] {
			seen[sq.model] = true
			gate = append(gate, i)
		}
	}
	edr := city.engines["EDR"]
	c.shape["trajectories"] = edr.Dataset().Len()
	c.shape["postings"] = edr.Backend().NumPostings()
	c.shape["query_len"] = roadQLen
	c.shape["distinct_queries"] = len(queries)
	c.shape["models"] = modelNames
	c.shape["tau_ratio"] = tauRatio
	c.shape["temporal_share"] = 0.25
	c.shape["backend"] = edr.IndexKind()
	c.shape["shards"] = edr.NumShards()
	c.layer("index.bytes_per_traj", float64(edr.IndexBytes())/float64(edr.Dataset().Len()))
	return runSearch(ctx, o, c, city.engines, queries, gate)
}

// denseCorpus is the high-fan-out synthetic corpus behind a compact index
// mapped back from disk.
type denseCorpus struct {
	eng   *core.Engine
	close func() error
	path  string
}

// syntheticShort builds n trajectories of 24–56 symbols drawn uniformly
// from a 1000-symbol alphabet, with 15 s sample spacing.
func syntheticShort(n int, rng *rand.Rand) *traj.Dataset {
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < n; i++ {
		l := 24 + rng.Intn(33)
		p := make([]traj.Symbol, l)
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(denseAlpha))
		}
		start := float64(rng.Intn(horizonSec))
		ts := make([]float64, l)
		for j := range ts {
			ts[j] = start + float64(j)*15
		}
		ds.Add(traj.Trajectory{Path: p, Times: ts})
	}
	return ds
}

// buildDense generates the corpus, freezes it into a compact arena, saves
// the arena and maps it back with index.OpenMapped — the path a server
// restart takes.
func buildDense(o options) (*denseCorpus, error) {
	n := int(denseTrajs * o.scale)
	ds := syntheticShort(n, rand.New(rand.NewSource(subSeed(o.seed, streamDense))))
	path := filepath.Join(o.dir, fmt.Sprintf("dense-%d.sbtj", o.seed))
	if err := saveCompact(index.FreezeDataset(ds), path); err != nil {
		os.Remove(path)
		return nil, err
	}
	mapped, err := index.OpenMapped(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	eng := core.NewEngineWithBackend(ds, index.NewOverlay(mapped), wed.NewLev())
	return &denseCorpus{eng: eng, close: mapped.Close, path: path}, nil
}

func saveCompact(c *index.Compact, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runDenseSearch(ctx context.Context, o options, c *collector) error {
	corpus, setup, err := timeSetup(ctx, o.setupReps, func() (*denseCorpus, error) { return buildDense(o) }, (*denseCorpus).release)
	if err != nil {
		return err
	}
	defer corpus.release()
	c.endToEnd("setup_s", setup)
	eng := corpus.eng
	rng := rand.New(rand.NewSource(subSeed(o.seed, streamQueries)))
	queries := make([]searchQuery, 0, densePool)
	for len(queries) < densePool {
		q, err := workload.SampleQuery(eng.Dataset(), denseQLen, rng)
		if err != nil {
			return err
		}
		queries = append(queries, searchQuery{model: "Lev", q: q, tau: tauRatio * core.SumFilterCost(eng.Costs(), q)})
	}
	c.shape["trajectories"] = eng.Dataset().Len()
	c.shape["postings"] = eng.Backend().NumPostings()
	c.shape["alphabet"] = denseAlpha
	c.shape["query_len"] = denseQLen
	c.shape["distinct_queries"] = len(queries)
	c.shape["models"] = []string{"Lev"}
	c.shape["tau_ratio"] = tauRatio
	c.shape["backend"] = eng.IndexKind()
	c.shape["shards"] = eng.NumShards()
	c.layer("index.bytes_per_traj", float64(eng.IndexBytes())/float64(eng.Dataset().Len()))
	gate := make([]int, 0, denseGateN)
	for i := 0; i < denseGateN && i < len(queries); i++ {
		gate = append(gate, i)
	}
	return runSearch(ctx, o, c, map[string]*core.Engine{"Lev": eng}, queries, gate)
}

func (d *denseCorpus) release() error {
	err := d.close()
	if rerr := os.Remove(d.path); err == nil {
		err = rerr
	}
	return err
}

// runSearch is the measured part of road-search and dense-search: the
// reference answers, the PlainSW gate, then either the untraced timed
// loop (end-to-end metrics) or, with -trace 1, the layer-by-layer
// pipeline untraced and then traced (per-layer metrics and the tracing
// overhead).
func runSearch(ctx context.Context, o options, c *collector, engines map[string]*core.Engine, queries []searchQuery, gate []int) error {
	n := len(queries)
	refs := make([]uint64, n)
	refAnswers := make([][]traj.Match, n)
	refStats := make([]*core.QueryStats, n)
	for i, sq := range queries {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, st, err := engines[sq.model].SearchQuery(sq.coreQuery())
		if err != nil {
			return fmt.Errorf("reference answer %d: %w", i, err)
		}
		refs[i], refAnswers[i], refStats[i] = fingerprint(res), res, st
	}
	if o.perturb {
		refs[0] ^= 1
	}
	c.logf("%d reference answers computed", n)
	// The gate's scans are independent; run them on every CPU.
	msgs := make([]string, len(gate))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for g, i := range gate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sq := queries[i]
			msgs[g] = checkPlainSW(engines[sq.model], sq, refAnswers[i], subSeed(o.seed, streamGate)+int64(i))
		}()
	}
	wg.Wait()
	for g, i := range gate {
		c.attempted++
		if msgs[g] != "" {
			c.fail("query %d (%s): %s", i, queries[i].model, msgs[g])
		}
	}
	c.shape["plainsw_checked"] = len(gate)
	c.logf("PlainSW checked %d queries", len(gate))

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		lat, wall := closedLoop(ctx, budget, func(i int) time.Duration {
			k := i % n
			sq := queries[k]
			t0 := time.Now()
			res, _, err := engines[sq.model].SearchQuery(sq.coreQuery())
			d := time.Since(t0)
			c.attempted++
			if err != nil {
				c.fail("query %d: %v", k, err)
			} else if fingerprint(res) != refs[k] {
				c.fail("query %d: answer differs from its reference", k)
			}
			return d
		})
		c.recordLatency(lat)
		c.endToEnd("queries_per_s", float64(len(lat))/wall.Seconds())
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		c.endToEnd("peak_rss_mb", rss)
		return nil
	}

	// The traced run drives the pipeline one call at a time: first for
	// half the time with no spans, then traced, so the difference of the
	// two medians is what tracing costs and nothing else.
	before := readRuntime()
	lat, _ := closedLoop(ctx, budget/2, func(i int) time.Duration {
		k := i % n
		sq := queries[k]
		t0 := time.Now()
		out, err := pipelineSearch(nil, 0, engines[sq.model], sq)
		d := time.Since(t0)
		c.attempted++
		if err != nil {
			c.fail("pipeline query %d: %v", k, err)
		} else if fingerprint(out.res) != refs[k] {
			c.fail("pipeline query %d: answer differs from Engine.SearchQuery's", k)
		}
		return d
	})
	c.recordRuntime(before, readRuntime(), len(lat))
	untracedP50 := median(lat)

	var (
		reqs                               int32
		cands, predicted, postings         []float64
		cols, steps, cells, nodes          []float64
		sumCols, sumSteps, sumCells, sumAv float64
		sumCands, sumMatches               float64
		seqSteps                           = make([]int64, n)
		seqSeen                            = make([]bool, n)
	)
	closedLoop(ctx, budget/2, func(i int) time.Duration {
		k := i % n
		sq := queries[k]
		t0 := time.Now()
		out, err := pipelineSearch(c.spans, reqs, engines[sq.model], sq)
		d := time.Since(t0)
		reqs++
		c.attempted++
		if err != nil {
			c.fail("traced query %d: %v", k, err)
			return d
		}
		if fingerprint(out.res) != refs[k] {
			c.fail("traced query %d: answer differs from Engine.SearchQuery's", k)
		}
		vs := out.vstats
		cands = append(cands, float64(out.candidates))
		predicted = append(predicted, float64(out.predicted))
		postings = append(postings, float64(out.postings))
		cols = append(cols, float64(vs.ColumnsVisited))
		steps = append(steps, float64(vs.StepDPCalls))
		cells = append(cells, float64(vs.CellsComputed))
		nodes = append(nodes, float64(vs.TrieNodes))
		sumCols += float64(vs.ColumnsVisited)
		sumSteps += float64(vs.StepDPCalls)
		sumCells += float64(vs.CellsComputed)
		sumAv += float64(vs.CellsAvailable)
		sumCands += float64(out.candidates)
		sumMatches += float64(len(out.res))
		if !seqSeen[k] {
			seqSeen[k], seqSteps[k] = true, vs.StepDPCalls
		}
		return d
	})

	self := c.spans.selfTimes()
	dur := c.spans.durations()
	root := perRequest(dur, reqs, "core.SearchQuery")
	var verifyMS []float64
	for r := int32(0); r < reqs; r++ {
		var v float64
		for _, m := range modelNames {
			v += self[r]["verify."+m]
		}
		verifyMS = append(verifyMS, v)
	}
	plan := perRequest(self, reqs, "filter.BuildPlan")
	candSelf := perRequest(self, reqs, "filter.Candidates")
	group := perRequest(self, reqs, "filter.GroupByTrajectory")
	lookup := perRequest(self, reqs, "index.Postings")
	total := sum(root)
	c.layer("core.query_ms", median(root))
	c.layer("trace.overhead_ms", median(root)-untracedP50)
	c.layer("filter.plan_us", median(plan)*1e3)
	c.layer("filter.group_us", median(group)*1e3)
	c.layer("filter.candidates", median(cands))
	c.layer("filter.predicted_candidates", median(predicted))
	c.layer("filter.precision", ratio(sumMatches, sumCands))
	c.layer("filter.share", ratio(sum(plan)+sum(candSelf)+sum(group), total))
	c.layer("index.lookup_us", median(lookup)*1e3)
	c.layer("index.postings", median(postings))
	c.layer("index.share", ratio(sum(lookup), total))
	c.layer("verify.ms", median(verifyMS))
	c.layer("verify.share", ratio(sum(verifyMS), total))
	c.layer("verify.ns_per_column", ratio(sum(verifyMS)*1e6, sumCols))
	c.layer("verify.columns_visited", median(cols))
	c.layer("verify.stepdp_calls", median(steps))
	c.layer("verify.cells_computed", median(cells))
	c.layer("verify.trie_nodes", median(nodes))
	c.layer("verify.cmr", ratio(sumSteps, sumCols))
	c.layer("verify.band_ratio", ratio(sumCells, sumAv))
	for _, m := range modelNames {
		if v := perRequest(self, reqs, "verify."+m); len(v) > 0 {
			c.layer("verify.ms."+m, median(v))
		}
	}
	var workers []float64
	var parSteps, seqTotal float64
	for k := range queries {
		workers = append(workers, float64(refStats[k].Workers))
		if seqSeen[k] {
			parSteps += float64(refStats[k].Verify.StepDPCalls)
			seqTotal += float64(seqSteps[k])
		}
	}
	c.layer("core.workers", median(workers))
	c.layer("core.stepdp_dup_ratio", ratio(parSteps, seqTotal))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedOut is one traced query's answer and work counts.
type tracedOut struct {
	res        []traj.Match
	vstats     verify.Stats
	candidates int
	predicted  int
	postings   int
}

// pipelineSearch answers sq through the engine's layers one call at a
// time: filter.BuildPlan, per-shard Plan.Candidates*, GroupByTrajectory,
// and sequential verification. With a span log it records a span around
// each call, with the PostingSource lookups inside Candidates* as index
// spans; with a nil log it makes the same calls untraced. Its answer must
// equal Engine.SearchQuery's.
func pipelineSearch(log *spanLog, req int32, eng *core.Engine, sq searchQuery) (tracedOut, error) {
	var out tracedOut
	root := log.start("core.SearchQuery", -1, req)
	defer log.end(root)
	sp := log.start("filter.BuildPlan", root, req)
	plan, err := filter.BuildPlan(eng.Costs(), eng.Backend(), sq.q, sq.tau)
	log.end(sp)
	if err != nil {
		return out, err
	}
	out.predicted = plan.PredictedCandidates
	be := eng.Backend()
	var cands []filter.Candidate
	for s := 0; s < be.NumShards(); s++ {
		cs := log.start("filter.Candidates", root, req)
		start := log.now()
		inner := be.Source(s)
		var src index.PostingSource = inner
		var ts *timedSource
		if log != nil {
			ts = &timedSource{inner: inner}
			src = ts
		}
		if sq.temporal {
			cands = plan.CandidatesByDeparture(src, sq.lo, sq.hi, cands)
		} else {
			cands = plan.Candidates(src, cands)
		}
		index.ReleaseSource(inner)
		log.end(cs)
		if ts != nil {
			log.add("index.Postings", cs, req, start, ts.elapsed)
			out.postings += ts.postings
		}
	}
	gs := log.start("filter.GroupByTrajectory", root, req)
	filter.GroupByTrajectory(cands)
	log.end(gs)
	out.candidates = len(cands)
	vs := log.start("verify."+sq.model, root, req)
	out.res, out.vstats = verifyCandidates(eng, sq, cands)
	log.end(vs)
	if sq.temporal {
		out.res = keepDeparting(eng.Dataset(), out.res, sq.lo, sq.hi)
	}
	return out, nil
}

// verifyCandidates runs one pooled verifier over grouped candidates.
func verifyCandidates(eng *core.Engine, sq searchQuery, cands []filter.Candidate) ([]traj.Match, verify.Stats) {
	ver := verify.Get(eng.Costs(), eng.Dataset(), sq.q, sq.tau, verify.Options{})
	defer verify.Put(ver)
	for _, c := range cands {
		ver.Verify(verify.Candidate{ID: c.ID, Pos: c.Pos, IQ: c.IQ})
	}
	res := ver.Results()
	return res, ver.Stats
}

// keepDeparting is the departure constraint's exact check on matches.
func keepDeparting(ds *traj.Dataset, res []traj.Match, lo, hi float64) []traj.Match {
	out := res[:0]
	for _, m := range res {
		if dep, ok := ds.Get(m.ID).Departure(); ok && dep >= lo && dep <= hi {
			out = append(out, m)
		}
	}
	return out
}
